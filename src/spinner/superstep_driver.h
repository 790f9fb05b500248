// The superstep schedule of Spinner's iteration loop, factored out of the
// in-process path so one master drives every execution substrate:
//
//   Initialize ─► [ ComputeScores ─► master logic ─► ComputeMigrations ]*
//
// DriveSpinnerSupersteps owns everything that must be computed exactly once
// and in a fixed order — capacities (Eq. 5), the fixed block-order global
// score reduction, φ/ρ points, the halting heuristic (§III.C), observer
// callbacks and run statistics — while a SuperstepBackend executes the
// per-shard phase bodies wherever the shards live:
//  * in-process: blocks dealt out to ThreadPool workers by the
//    work-stealing scheduler (RunShardedSpinner in sharded_program.cc,
//    spinner/steal_schedule.h);
//  * cross-process: one RPC round per phase to the ShardWorker processes
//    (dist/coordinator.cc), whose replies carry exactly the quantities the
//    outcome structs below name.
//
// Because every cross-shard float reduction happens here (fixed block
// order) and every cross-shard integer merge is order-free addition, two
// backends that run the same shard bodies produce bit-identical
// assignments and φ/ρ/score histories — the invariance tests assert this
// across the in-process and multi-process substrates.
#ifndef SPINNER_SPINNER_SUPERSTEP_DRIVER_H_
#define SPINNER_SPINNER_SUPERSTEP_DRIVER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/observer.h"
#include "spinner/sharded_program.h"

namespace spinner {

/// Executes the three phase bodies over all shards and reports the merged
/// quantities the master needs. Contract after each call: the driver-side
/// store holds the current labels for every vertex and every shard's load
/// counters (so ShardedGraphStore::MergedLoads() is the global b(l)).
class SuperstepBackend {
 public:
  virtual ~SuperstepBackend() = default;

  struct InitOutcome {
    /// Label-advertisement messages per shard (stats only).
    std::vector<int64_t> messages_out;
  };

  struct ScoreOutcome {
    /// Per-block global-score partials, one entry per vertex block; the
    /// driver reduces them in fixed block order.
    std::vector<double> block_score;
    /// Σ over vertices of the weighted neighbor frequency of the current
    /// label (φ numerator partial). Integer, so merge order is free.
    int64_t local_weight = 0;
    /// Load wanting to enter each partition, merged over shards.
    std::vector<int64_t> migration_counts;
  };

  struct MigrateOutcome {
    /// Vertices that migrated this superstep.
    int64_t migrated = 0;
    /// Label-update messages per shard (stats only).
    std::vector<int64_t> messages_out;
  };

  /// Superstep 0: initialize labels and loads from `initial_labels`
  /// (ShardInitialize contract).
  virtual Status Initialize(const std::vector<PartitionId>& initial_labels,
                            InitOutcome* out) = 0;

  /// ComputeScores superstep `superstep` against the frozen global loads.
  virtual Status ComputeScores(int64_t superstep,
                               const std::vector<int64_t>& global_loads,
                               const std::vector<double>& capacities,
                               ScoreOutcome* out) = 0;

  /// ComputeMigrations superstep `superstep`; after it returns, labels and
  /// loads visible to the driver (and to every shard executor) reflect the
  /// applied moves.
  virtual Status ComputeMigrations(
      int64_t superstep, const std::vector<int64_t>& global_loads,
      const std::vector<double>& capacities,
      const std::vector<int64_t>& migration_counts, MigrateOutcome* out) = 0;
};

/// Runs the full superstep schedule over `store` through `backend`.
/// `store` provides the topology (shard ranges, block count) and holds the
/// authoritative labels/loads between phases; `observer` may be null.
/// An `initial_labels` entry that is neither kNoPartition nor in [0, k)
/// is InvalidArgument, before any superstep runs.
Result<ShardedRunResult> DriveSpinnerSupersteps(
    const SpinnerConfig& config, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels, SuperstepBackend* backend,
    const ProgressObserver* observer);

}  // namespace spinner

#endif  // SPINNER_SPINNER_SUPERSTEP_DRIVER_H_
