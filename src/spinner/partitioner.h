// SpinnerPartitioner: the low-level, stateless entry points of the Spinner
// algorithm. Entry points map to the paper's three modes: Partition /
// PartitionDirected (scratch), Repartition (incremental, §III.D) and
// Rescale (elastic, §III.E).
//
//   SpinnerConfig config;
//   config.num_partitions = 32;
//   SpinnerPartitioner partitioner(config);
//   auto result = partitioner.Partition(converted_graph);
//   if (result.ok()) use(result->assignment);
//
// DEPRECATION NOTE: new code should prefer the maintained-lifecycle API —
// PartitioningSession (spinner/session.h) owns the graph + assignment and
// composes delta application, conversion and adaptation; the
// PartitionerRegistry (baselines/partitioner_registry.h) constructs any
// partitioner, Spinner included, behind the uniform GraphPartitioner
// interface. These free-standing entry points remain as thin shims for
// callers that manage graph state themselves: each computes its initial
// labels and calls RunSpinner below, the same run path a session takes, so
// both report the same PartitionResult — scheduler counters included.
#ifndef SPINNER_SPINNER_PARTITIONER_H_
#define SPINNER_SPINNER_PARTITIONER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/metrics.h"
#include "spinner/observer.h"
#include "spinner/sharded_program.h"
#include "spinner/types.h"

namespace spinner {

namespace dist {
class WorkerRegistry;
}  // namespace dist

/// Everything a run produces: the assignment plus quality metrics,
/// convergence curves and run statistics (used by the adaptation
/// benches to measure time/message savings).
struct PartitionResult {
  /// Partition label per vertex, all in [0, num_partitions).
  std::vector<PartitionId> assignment;
  /// k of this run.
  int num_partitions = 0;
  /// LPA iterations executed.
  int iterations = 0;
  /// True iff halted by the score-convergence criterion (not the cap).
  bool converged = false;
  /// True iff stopped early by a ProgressObserver or cancellation token;
  /// the assignment is still complete and valid, just less optimized.
  bool cancelled = false;
  /// Final quality (computed on the converted graph).
  PartitionMetrics metrics;
  /// Per-iteration evolution (Fig. 4 curves); empty if record_history off.
  std::vector<IterationPoint> history;
  /// Run statistics: supersteps, wall time, messages.
  RunRecord run_stats;
  /// Wire traffic of the cross-process execution mode (zeros when the run
  /// stayed in-process).
  WireTraffic wire;
  /// Work-stealing claim counters of the in-process execution mode (zeros
  /// for the cross-process modes).
  ScheduleStats schedule;
};

/// The execution resources a Spinner run borrows, each created on first
/// use: the in-process ThreadPool and the kTcp WorkerRegistry (listener
/// plus pooled worker connections). A PartitioningSession keeps one for
/// its lifetime, so pooled TCP workers stay connected across lifecycle
/// calls; each SpinnerPartitioner call uses a throwaway one.
class ExecutionResources {
 public:
  ~ExecutionResources();  // out-of-line: owns a forward-declared registry

  /// The pool, created with ResolveNumThreads(config) threads on first use.
  ThreadPool* Pool(const SpinnerConfig& config);

  /// The registry, bound on first use to execution.listen_address (an
  /// ephemeral loopback port when empty) with its handshake timeout.
  Result<dist::WorkerRegistry*> Registry(const ExecutionOptions& execution);

  /// The registry if one is bound, else null.
  dist::WorkerRegistry* bound_registry() const { return registry_.get(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<dist::WorkerRegistry> registry_;
};

/// The one Spinner run: label propagation with `k` partitions over `store`
/// from `initial_labels` (RunShardedSpinner's contract), executed as
/// config.execution.mode selects — RunShardedSpinner on the resources'
/// pool, or dist::RunMultiProcessSpinner over forked (kMultiProcess) or
/// dial-in (kTcp, through the resources' registry) workers. Returns the
/// complete result, metrics computed over the store. On success
/// store->labels() equals the result's assignment; after a failure they
/// are unspecified and the caller restores them.
Result<PartitionResult> RunSpinner(const SpinnerConfig& config, int k,
                                   ShardedGraphStore* store,
                                   std::vector<PartitionId> initial_labels,
                                   ExecutionResources* resources,
                                   const ProgressObserver& observer);

/// Stateless facade; safe to reuse and to share across threads.
class SpinnerPartitioner {
 public:
  explicit SpinnerPartitioner(const SpinnerConfig& config);

  /// Partitions a converted (symmetric, weighted) graph from scratch.
  Result<PartitionResult> Partition(const CsrGraph& converted) const;

  /// Partitions a raw directed edge list from scratch: converts it with
  /// ConvertToWeightedUndirected (Eq. 3; self-loops and duplicates are
  /// dropped), then partitions the converted graph.
  Result<PartitionResult> PartitionDirected(int64_t num_vertices,
                                            const EdgeList& directed) const;

  /// Incremental adaptation (§III.D): restarts label propagation from
  /// `previous` on a changed graph. `previous` may cover fewer vertices
  /// than the graph; new vertices join the least-loaded partition. Every
  /// vertex participates in migration (the paper's chosen strategy).
  Result<PartitionResult> Repartition(
      const CsrGraph& new_converted,
      std::span<const PartitionId> previous) const;

  /// Elastic adaptation (§III.E) to `new_num_partitions` partitions:
  /// applies the probabilistic expand/shrink re-labeling, then restarts
  /// label propagation. new_num_partitions may be larger or smaller than
  /// config.num_partitions (which is the previous k).
  Result<PartitionResult> Rescale(const CsrGraph& converted,
                                  std::span<const PartitionId> previous,
                                  int new_num_partitions) const;

  /// The configuration this partitioner runs with.
  const SpinnerConfig& config() const { return config_; }

 private:
  /// RunSpinner with `k` partitions over a throwaway ShardedGraphStore of
  /// `converted`, on throwaway execution resources.
  Result<PartitionResult> RunOnGraph(const CsrGraph& converted,
                                     std::vector<PartitionId> initial_labels,
                                     int k) const;

  SpinnerConfig config_;
};

}  // namespace spinner

#endif  // SPINNER_SPINNER_PARTITIONER_H_
