// Fault injection for the cross-process transport: a Transport decorator
// that interposes a frame-granular proxy on every worker connection it
// hands out, and perturbs traffic according to a scripted, seeded plan —
// dropping, delaying, corrupting, or closing at exact frame ordinals or
// with deterministic pseudo-random probability. This is the chaos
// harness behind the recovery tests and the `ci.sh --mode=chaos` lane:
// the coordinator and workers run unmodified production code while the
// proxy misbehaves between them.
//
// Determinism: a probabilistic rule fires iff
//   hash(seed, worker ordinal, direction, frame index) < probability,
// so a given plan perturbs the exact same frames on every run — which is
// what lets tests assert bit-identical recovered output.
//
// Activation paths: unit tests construct FaultInjectingTransport
// directly around a real transport; release binaries are wrapped by
// RunMultiProcessSpinner when the SPINNER_FAULT_PLAN environment variable
// holds a parseable plan (see FaultPlan::Parse) — no dedicated flag on
// any entry point.
#ifndef SPINNER_DIST_FAULT_INJECTION_H_
#define SPINNER_DIST_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/registry.h"
#include "dist/transport.h"

namespace spinner::dist {

enum class FaultAction {
  /// Swallow the frame. The receiver sees silence — with a read deadline
  /// armed this surfaces as DeadlineExceeded (a "hung" peer).
  kDrop,
  /// Forward the frame after delay_ms. Benign: bytes are preserved, so a
  /// run under pure-delay faults must still be bit-identical — the chaos
  /// smoke's cheap invariant.
  kDelay,
  /// Flip one payload byte (frames with empty payloads pass untouched).
  /// Surfaces as a checksum/decode failure — a "corrupt stream" peer.
  kCorrupt,
  /// Shut down both directions of the connection. Both sides see EOF —
  /// a "dead" peer, indistinguishable from a crashed process.
  kClose,
};

enum class FaultDirection {
  kCoordinatorToWorker,
  kWorkerToCoordinator,
  kBoth,
};

/// One scripted perturbation. Either exact (`frame_index` >= 0: fire on
/// that per-connection, per-direction frame ordinal, 0-based) or
/// probabilistic (`frame_index` < 0: fire per frame with `probability`,
/// derived deterministically from the plan seed).
struct FaultRule {
  FaultAction action = FaultAction::kDelay;
  FaultDirection direction = FaultDirection::kBoth;
  /// Acquisition ordinal of the connection this rule targets (the order
  /// endpoints were wrapped, counting across Acquire and recovery
  /// top-ups); -1 = every connection.
  int worker = -1;
  int64_t frame_index = -1;
  double probability = 0.0;
  int64_t delay_ms = 0;
};

/// A seeded list of rules; the first matching rule per frame fires.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// Parses the compact plan syntax used by SPINNER_FAULT_PLAN:
  /// semicolon-separated tokens, each either `seed=N` or
  ///   action[:key=value]*
  /// with action in {drop, delay, corrupt, close} and keys
  ///   dir=c2w|w2c|both   worker=N|all   frame=N   p=FLOAT   ms=N
  /// e.g. "seed=7;delay:dir=w2c:p=0.25:ms=3" or "drop:worker=1:frame=12".
  static Result<FaultPlan> Parse(const std::string& spec);
};

/// What the proxies actually did — asserted by tests ("the drop rule
/// fired exactly once") and printed by the chaos lane.
struct FaultCounters {
  std::atomic<int64_t> frames_forwarded{0};
  std::atomic<int64_t> frames_dropped{0};
  std::atomic<int64_t> frames_delayed{0};
  std::atomic<int64_t> frames_corrupted{0};
  std::atomic<int64_t> connections_closed{0};
};

/// Decorates a real Transport: every endpoint the inner transport
/// produces is re-terminated on a local socketpair with two pump threads
/// shuttling frames between the coordinator and the real connection,
/// applying the plan's faults in both directions. Release/Destroy stop
/// the pumps and forward the REAL endpoint to the inner transport (so a
/// registry pools the genuine connection, not the proxy). Not
/// thread-safe, like every Transport — one coordinator drives it.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport* inner, FaultPlan plan);
  ~FaultInjectingTransport() override;

  const char* name() const override { return "fault"; }

  Result<std::vector<WorkerEndpoint>> Acquire(
      int num_workers, const TransportOptions& options,
      std::optional<int64_t> wait_ms) override;
  void Release(std::vector<WorkerEndpoint> endpoints) override;
  void Destroy(WorkerEndpoint endpoint) override;

  const FaultCounters& counters() const { return counters_; }

 private:
  struct Proxy;

  /// Re-terminates `real` on a proxy socketpair and starts its pumps;
  /// returns the endpoint the coordinator should use.
  Result<WorkerEndpoint> WrapEndpoint(WorkerEndpoint real);
  /// Stops and removes the proxy whose coordinator-side fd is
  /// `coordinator_fd`; returns it (null if the fd is not one of ours).
  std::unique_ptr<Proxy> DetachProxy(int coordinator_fd);

  Transport* inner_;
  FaultPlan plan_;
  FaultCounters counters_;
  int next_ordinal_ = 0;
  std::vector<std::unique_ptr<Proxy>> proxies_;
};

}  // namespace spinner::dist

#endif  // SPINNER_DIST_FAULT_INJECTION_H_
