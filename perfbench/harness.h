// Shared plumbing of the end-to-end benchmark driver: the run options, the
// result record every workload fills, timing and quantile helpers, and
// the host facts each result carries.
//
// Every span is timed here, around calls into the library's public entry
// points; nothing inside the library is instrumented.
#ifndef SPINNER_PERFBENCH_HARNESS_H_
#define SPINNER_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget: untraced runs repeat their unit of work until
  /// this many seconds have been spent (at least min_reps times).
  double seconds = 10;
  /// false: end-to-end metrics, measured without any observer or timed
  /// backend. true: the per-layer breakdown.
  bool trace = false;
  /// Shrinks every input to a few thousand vertices (self-test mode).
  bool tiny = false;
  /// Directory for the run's scratch files (edge lists, snapshots).
  std::string workdir = ".";
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// FNV-1a over an assignment: equal hashes are the bit-identity checks.
uint64_t HashLabels(std::span<const spinner::PartitionId> labels);

/// Peak resident set of this process since start or the last
/// ResetPeakRss(), MB.
double PeakRssMb();
/// Resets the peak-RSS mark to the current RSS, so a measured peak leaves
/// out input generation (Linux /proc/self/clear_refs).
void ResetPeakRss();
/// Peak resident set of the largest reaped child process, MB.
double ChildrenPeakRssMb();

/// Size of a file in bytes, -1 if it cannot be read.
int64_t FileBytes(const std::string& path);

/// The outcome of one run: metrics, host/input context, and the
/// attempted/failed operation tally that makes up error_rate. Operations
/// are lifecycle calls into the library, submitted events, and output
/// checks.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, double value);
  void Context(const std::string& key, const std::string& value);

  /// Counts one operation; records `what` as a failure when !ok. Returns
  /// ok so callers can bail out of a workload on the first failure.
  bool Check(bool ok, const std::string& what);
  bool Check(const spinner::Status& status, const std::string& what);

  /// Counts `n` operations that all succeeded (e.g. submitted events).
  void CountOk(int64_t n) { attempted_ += n; }

  bool correct() const { return failed_ == 0; }

  /// The whole record as one JSON object.
  std::string ToJson(const Options& options) const;

 private:
  struct MetricValue {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Records the host facts every result carries: CPUs, L2/LLC sizes,
/// build type, and whether the SIMD kernel was compiled in.
void AddHostContext(Report* report);

/// LLC size in bytes as the OS reports it (0 when unknown).
int64_t LlcBytes();

}  // namespace perfbench

#endif  // SPINNER_PERFBENCH_HARNESS_H_
