// The in-process execution of Spinner's iteration loop: the superstep
// phases of the paper's Pregel program (Initialize ─► ComputeScores ─►
// ComputeMigrations, §IV.A.2–4), driven by the shared superstep driver
// (spinner/superstep_driver.h) over a ShardedGraphStore on a ThreadPool.
// Each phase is dealt out block-by-block through a work-stealing
// scheduler (spinner/steal_schedule.h), so skewed shards never serialize
// a superstep; between supersteps the driver merges per-shard
// partition-load deltas and migration counters in fixed shard order and
// evaluates the master logic (halting §III.C, observer callbacks).
//
// Determinism: results are bit-identical for any shard count S (S = 1
// included) and any thread count, because
//  * label scores are computed against a frozen previous-superstep label
//    and load snapshot — the asynchronous §IV.A.4 view is applied at
//    fixed-size vertex-block granularity (ShardedGraphStore::kBlockSize),
//    which is independent of S;
//  * the global score is reduced block-wise in fixed block order, so the
//    floating-point sum never depends on S or scheduling;
//  * all integer counters (loads, migration counts) merge in fixed shard
//    order, and all randomness is hash-derived per (seed, superstep,
//    vertex) through the shared lpa kernel.
//
// This is the in-process execution path of RunSpinner
// (spinner/partitioner.h), behind SpinnerPartitioner and
// PartitioningSession; directed inputs are converted first (§IV.A.1,
// graph/conversion.h).
#ifndef SPINNER_SPINNER_SHARDED_PROGRAM_H_
#define SPINNER_SPINNER_SHARDED_PROGRAM_H_

#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/observer.h"
#include "spinner/types.h"

namespace spinner {

/// One driver superstep (Initialize, then ComputeScores/ComputeMigrations
/// rounds).
struct SuperstepRecord {
  /// Measured wall-clock duration, barrier included.
  double wall_seconds = 0.0;
  /// Label-update messages sent: one per arc whose source announced a
  /// label (Initialize) or a move (ComputeMigrations); zero for
  /// ComputeScores.
  int64_t messages_sent = 0;
};

/// Wall time and message counts of one run, per driver superstep.
struct RunRecord {
  int64_t supersteps = 0;
  double total_wall_seconds = 0.0;
  std::vector<SuperstepRecord> per_superstep;

  /// Sum of messages_sent over all supersteps.
  int64_t TotalMessages() const {
    int64_t total = 0;
    for (const SuperstepRecord& s : per_superstep) total += s.messages_sent;
    return total;
  }
};

/// Wire traffic of one run, reported by message-passing backends (the
/// cross-process coordinator); all zeros for in-process runs, whose label
/// exchange is shared memory. The per-superstep bytes make the
/// O(V·workers) → O(boundary) label-traffic win observable: after Init,
/// each superstep's label bytes cover only subscribed (edge-cut) vertices.
struct WireTraffic {
  /// Total bytes/frames moved over every worker connection, including
  /// Setup/Subscribe/Snapshot/Teardown outside the superstep loop.
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
  /// Messages that crossed the wire in more than one chunk frame.
  int64_t chunked_messages = 0;
  /// Σ over workers of the subscribed (boundary mirror) vertex count.
  int64_t subscribed_vertices = 0;
  /// Label values sent by the one post-Init mirror seed (Σ subscription
  /// sizes) and label-delta entries sent by all per-iteration
  /// subscription-filtered broadcasts.
  int64_t label_values_sent = 0;
  int64_t delta_entries_sent = 0;
  /// Shard slice download accounting of the Assign/Resume handshake:
  /// slices actually sent in Setup (and their encoded bytes) vs. slices
  /// the workers already hosted with a matching fingerprint. A warm
  /// restart shows slices_resumed == num_shards and zero download.
  int64_t slices_downloaded = 0;
  int64_t slice_bytes_downloaded = 0;
  int64_t slices_resumed = 0;
  /// Failure-recovery accounting: superstep phases retried after a worker
  /// failure (each retry rebuilt the fleet, replayed the checkpointed
  /// label state, and re-ran the phase — results stay bit-identical), and
  /// endpoints newly acquired during those rebuilds. Zero on a
  /// failure-free run or when execution.max_recovery_attempts == 0.
  int64_t recoveries = 0;
  int64_t workers_replaced = 0;
  /// Bytes sent to workers during each driver superstep, in the order of
  /// run_stats.per_superstep (Initialize, then Scores/Migrate rounds).
  std::vector<int64_t> per_superstep_bytes;
  /// Wall nanoseconds each worker reported computing its Scores and
  /// Migrate replies, summed over the run and indexed by worker slot
  /// (after a fleet rebuild, slot w is whichever worker hosts the w-th
  /// shard range; replayed phases count too). The spread between entries
  /// says which worker was slow.
  std::vector<int64_t> worker_compute_ns;
};

/// Claim accounting of the in-process work-stealing scheduler
/// (spinner/steal_schedule.h): every superstep phase is dealt out as
/// kBlockSize vertex blocks, and blocks a worker claimed from a shard it
/// does not primarily own count as stolen. All zeros for backends that
/// schedule differently (the cross-process coordinator). Observability
/// only — the schedule never affects results.
struct ScheduleStats {
  /// Blocks claimed across all phases of the run.
  int64_t tasks = 0;
  /// Blocks claimed by a non-primary worker (load balancing in action).
  int64_t stolen_tasks = 0;
  /// Scheduled phases (Initialize + two per LPA iteration).
  int64_t phases = 0;
};

/// Outcome of a sharded run; the final assignment lives in the store's
/// label array.
struct ShardedRunResult {
  /// LPA iterations executed (ComputeScores supersteps).
  int iterations = 0;
  /// True iff halted via the score-convergence criterion (§III.C).
  bool converged = false;
  /// True iff stopped early by the observer or cancellation token.
  bool cancelled = false;
  /// Per-iteration φ/ρ/score curves (when config.record_history).
  std::vector<IterationPoint> history;
  /// Per-superstep wall time and label-update message counts.
  RunRecord run_stats;
  /// Wire traffic of message-passing backends (zeros in-process).
  WireTraffic wire;
  /// Work-stealing claim counters of the in-process backend (zeros for
  /// backends with their own scheduling).
  ScheduleStats schedule;
};

/// The shard count a run should use: config.execution.num_shards when
/// set, else one shard per hardware thread capped by the block count. The
/// choice never affects results, only parallelism granularity.
int ResolveNumShards(const SpinnerConfig& config, int64_t num_vertices);

/// The OS-thread count a run should use: config.execution.num_threads when
/// set, else the hardware concurrency. Workers steal blocks, so more
/// threads than shards is useful and the shard count does not cap the
/// thread count. Never affects results.
int ResolveNumThreads(const SpinnerConfig& config);

/// Runs Spinner label propagation shard-parallel over `store` on `pool`.
/// `initial_labels` follows the driver's contract: one fixed label per
/// vertex for incremental/elastic restarts, kNoPartition entries (or a
/// shorter vector) draw a uniform random label at Initialize, and any
/// other entry outside [0, k) is InvalidArgument. On success
/// store->labels() holds the final assignment and every shard's load
/// counters are consistent with it. `observer` may be null.
Result<ShardedRunResult> RunShardedSpinner(
    const SpinnerConfig& config, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels, ThreadPool* pool,
    const ProgressObserver* observer);

}  // namespace spinner

#endif  // SPINNER_SPINNER_SHARDED_PROGRAM_H_
