#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t HashLabels(std::span<const spinner::PartitionId> labels) {
  uint64_t h = 1469598103934665603ULL;
  for (const spinner::PartitionId l : labels) {
    h ^= static_cast<uint32_t>(l);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

double MaxRssMb(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// All digits of a measured value; non-finite values become null, which
/// the runner rejects.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int64_t SysconfBytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<int64_t>(v) : 0;
}

}  // namespace

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return MaxRssMb(RUSAGE_SELF);
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}
double ChildrenPeakRssMb() { return MaxRssMb(RUSAGE_CHILDREN); }

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return -1;
  return static_cast<int64_t>(in.tellg());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, JsonNumber(value));
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, JsonString(value));
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

bool Report::Check(const spinner::Status& status, const std::string& what) {
  return Check(status.ok(), status.ok() ? what : what + ": " +
                                                     status.ToString());
}

std::string Report::ToJson(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"tiny\": " << (options.tiny ? "true" : "false")
      << ", \"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures_[i]);
  }
  out << "], \"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(context_[i].first) << ": "
        << context_[i].second;
  }
  out << "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    out << (i ? ", " : "") << JsonString(m.name)
        << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

int64_t LlcBytes() {
  const int64_t l3 = SysconfBytes(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? l3 : SysconfBytes(_SC_LEVEL2_CACHE_SIZE);
}

void AddHostContext(Report* report) {
  report->Context("nproc", static_cast<double>(
                               std::thread::hardware_concurrency()));
  report->Context("l2_bytes_per_core",
                  static_cast<double>(SysconfBytes(_SC_LEVEL2_CACHE_SIZE)));
  report->Context("llc_bytes", static_cast<double>(LlcBytes()));
  report->Context("build_type", PERFBENCH_BUILD_TYPE);
#ifdef SPINNER_SIMD
  report->Context("spinner_simd", "ON");
#else
  report->Context("spinner_simd", "OFF");
#endif
}

}  // namespace perfbench
