// ElasticController: the closed loop. It sits between the signal sources
// the repo already publishes — the per-window IngestStats of a streaming
// run, or an on-demand ComputeMetricsEx in the blocking path — and the
// session's elasticity verbs: Rescale(k') and, in the off-thread modes,
// ResizeWorkers (which under kTcp drains pooled registry connections).
// The controller itself contains no scaling judgement; that lives in the
// injected ScalingPolicy. What it owns is plumbing and evidence:
//
//   * building one ScalingSignals per applied window (streaming) or per
//     Evaluate() call (blocking), stamped from an injected stream::Clock;
//   * executing the policy's verdict against the session, including the
//     optional proportional worker-fleet resize;
//   * an append-only DecisionRecord log — with a ManualClock this log is
//     a deterministic function of the event sequence, which is what the
//     policy lab scores and the tests byte-compare.
//
// Streaming wiring (the controller hooks IngestionOptions::on_apply, so
// decisions run on the ingestion thread, where the session may be
// mutated between windows):
//
//   ElasticController controller(&session, MakePolicy("watermark:...")
//                                              .value(), {.clock = clock});
//   IngestionOptions opts;
//   opts.clock = clock;
//   opts.on_apply = [&](const IngestStats& s) {
//     return controller.OnApply(s);
//   };
//
// Threading: not thread-safe. In the streaming wiring every method that
// touches the session runs on the ingestion thread; read the log only in
// a quiescent window (after Drain()/Stop()), like the session itself.
#ifndef SPINNER_ELASTIC_ELASTIC_CONTROLLER_H_
#define SPINNER_ELASTIC_ELASTIC_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "elastic/scaling_policy.h"
#include "spinner/session.h"
#include "stream/clock.h"
#include "stream/ingestion_service.h"

namespace spinner::elastic {

/// Construction-time knobs of an ElasticController.
struct ControllerOptions {
  /// Stamps DecisionRecords and feeds ScalingSignals::now_micros (which
  /// cooldown wrappers compare against). Defaults to SystemClock; tests
  /// and the replay lab inject the same ManualClock the ingestion service
  /// uses, making the whole decision log deterministic.
  std::shared_ptr<stream::Clock> clock;
  /// > 0 in the off-thread modes: after every executed rescale the worker
  /// fleet is resized to round(new_k * workers_per_partition), min 1 —
  /// partitions-per-machine stays constant as k moves. 0 (default) never
  /// touches the fleet.
  double workers_per_partition = 0.0;
  /// False: decisions are logged with executed=false but the session is
  /// never touched — the dry-run mode the policy lab's "what would policy
  /// X have done" comparisons use.
  bool execute = true;
};

/// One evaluated decision, executed or not. The log of these is the
/// deterministic artifact the acceptance criteria pin.
struct DecisionRecord {
  /// Controller-clock timestamp of the evaluation.
  int64_t at_micros = 0;
  /// 1-based evaluation ordinal.
  int evaluation = 0;
  /// k before the decision.
  int from_k = 0;
  ScalingAction action = ScalingAction::kHold;
  /// Target k; 0 for holds.
  int target_k = 0;
  /// True iff the session was actually rescaled.
  bool executed = false;
  /// The policy's own wording (deterministic).
  std::string reason;
  /// "" for holds and clean executions; the Status message when a
  /// Rescale/ResizeWorkers failed; "dry-run" when execute=false.
  std::string outcome;
  /// The signals the decision was made on (for the lab's scoring).
  double phi = 0.0;
  double rho = 0.0;
  int64_t max_load = 0;
  int64_t staleness_micros = 0;
};

/// Drives one PartitioningSession from one ScalingPolicy.
class ElasticController {
 public:
  /// `session` must outlive the controller and be open before the first
  /// evaluation. `policy` must be non-null.
  ElasticController(PartitioningSession* session,
                    std::unique_ptr<ScalingPolicy> policy,
                    ControllerOptions options = {});

  ElasticController(const ElasticController&) = delete;
  ElasticController& operator=(const ElasticController&) = delete;

  // --- Evaluation entry points -------------------------------------------

  /// The streaming hook: wire as IngestionOptions::on_apply (runs on the
  /// ingestion thread after every applied window, where the session is
  /// safely mutable). Merges `stats` with the session's last-run metrics
  /// into ScalingSignals, evaluates, executes. Always returns true — an
  /// elasticity failure is recorded in status() and stops further
  /// executions, but never tears down ingestion.
  bool OnApply(const stream::IngestStats& stats);

  /// The blocking-path entry point (partition_tool, examples): computes
  /// fresh metrics via session->Metrics(), evaluates, executes. Returns
  /// the metric-computation or execution error, OK on hold/clean action.
  Status Evaluate();

  /// Core step shared by both paths; callers that already hold signals
  /// (the policy lab's capacity events, unit tests) use it directly.
  /// Returns the decision after execution bookkeeping.
  const DecisionRecord& EvaluateSignals(ScalingSignals signals);

  // --- Environment --------------------------------------------------------

  /// Advertises how many machines the cluster can host partitions on
  /// (clamps every policy's scale-out target). 0 = unbounded. Capacity
  /// events of a replayed trace land here.
  void set_available_capacity(int capacity) {
    available_capacity_ = capacity;
  }
  int available_capacity() const { return available_capacity_; }

  // --- Evidence -----------------------------------------------------------

  const std::vector<DecisionRecord>& log() const { return log_; }

  /// The log as deterministic text, one line per decision:
  ///   [3 @2000000us] k=4 scale-out -> k=5 executed  (rho 1.2100 >= ...)
  std::string FormatLog() const;

  int evaluations() const { return static_cast<int>(log_.size()); }
  int rescales_executed() const { return rescales_executed_; }

  /// First elasticity error (Rescale/ResizeWorkers failure), if any.
  /// Once set, later decisions are logged but no longer executed.
  const Status& status() const { return status_; }

  PartitioningSession* session() const { return session_; }

 private:
  PartitioningSession* session_;
  std::unique_ptr<ScalingPolicy> policy_;
  ControllerOptions options_;
  std::shared_ptr<stream::Clock> clock_;
  int available_capacity_ = 0;
  /// events_ingested at the previous OnApply, for per-window deltas.
  int64_t last_events_ingested_ = 0;
  std::vector<DecisionRecord> log_;
  int rescales_executed_ = 0;
  Status status_;
};

}  // namespace spinner::elastic

#endif  // SPINNER_ELASTIC_ELASTIC_CONTROLLER_H_
