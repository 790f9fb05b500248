// Test-only reference for PartitioningSession's delta path: the
// rebuild-everything ApplyDelta the session used before it patched its
// store in place. Every window folds the delta into a copy of the edge
// list (spinner::ApplyDelta), reconverts the whole graph, slices a fresh
// store, runs label propagation from the incremental-restart labels and
// computes the metrics from the converted CSR. The differential tests run
// the same deltas through both paths and compare the results.
#ifndef SPINNER_TESTS_SESSION_REFERENCE_H_
#define SPINNER_TESTS_SESSION_REFERENCE_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "graph/conversion.h"
#include "graph/csr_graph.h"
#include "graph/delta.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/initial_assignment.h"
#include "spinner/metrics.h"
#include "spinner/sharded_program.h"

namespace spinner::session_reference {

/// The full-rebuild session, in-process: holds the edge list, the
/// converted graph and the assignment, and rebuilds the graph on every
/// delta.
class FullRebuildSession {
 public:
  FullRebuildSession(const SpinnerConfig& config, int num_shards)
      : config_(config), num_shards_(num_shards), pool_(2) {}

  Status Open(int64_t num_vertices, EdgeList edges, bool directed) {
    directed_ = directed;
    SPINNER_ASSIGN_OR_RETURN(CsrGraph converted,
                             Convert(num_vertices, edges));
    SPINNER_RETURN_IF_ERROR(
        Run(converted, std::vector<PartitionId>(num_vertices, kNoPartition)));
    num_vertices_ = num_vertices;
    edges_ = std::move(edges);
    converted_ = std::move(converted);
    return Status::OK();
  }

  Status ApplyDelta(const GraphDelta& delta) {
    SPINNER_ASSIGN_OR_RETURN(
        EdgeList new_edges, spinner::ApplyDelta(num_vertices_, edges_, delta));
    const int64_t new_n = num_vertices_ + delta.num_new_vertices;
    SPINNER_ASSIGN_OR_RETURN(CsrGraph new_converted,
                             Convert(new_n, new_edges));
    SPINNER_ASSIGN_OR_RETURN(
        std::vector<PartitionId> initial,
        ExtendForNewVertices(new_converted.WeightedDegrees(), assignment_,
                             config_.num_partitions));
    SPINNER_RETURN_IF_ERROR(Run(new_converted, std::move(initial)));
    num_vertices_ = new_n;
    edges_ = std::move(new_edges);
    converted_ = std::move(new_converted);
    return Status::OK();
  }

  int64_t num_vertices() const { return num_vertices_; }
  const EdgeList& edges() const { return edges_; }
  const CsrGraph& converted() const { return converted_; }
  const std::vector<PartitionId>& assignment() const { return assignment_; }
  const PartitionMetrics& metrics() const { return metrics_; }
  int iterations() const { return iterations_; }

 private:
  Result<CsrGraph> Convert(int64_t num_vertices, const EdgeList& edges) const {
    return directed_ ? ConvertToWeightedUndirected(num_vertices, edges)
                     : BuildSymmetric(num_vertices, edges);
  }

  /// Label propagation over a freshly sliced store, then metrics from the
  /// converted CSR.
  Status Run(const CsrGraph& converted, std::vector<PartitionId> initial) {
    SPINNER_ASSIGN_OR_RETURN(ShardedGraphStore store,
                             ShardedGraphStore::Build(converted, num_shards_));
    SPINNER_ASSIGN_OR_RETURN(
        ShardedRunResult run,
        RunShardedSpinner(config_, &store, std::move(initial), &pool_,
                          nullptr));
    BalanceSpec spec;
    spec.mode = config_.balance_mode;
    spec.partition_weights = config_.partition_weights;
    SPINNER_ASSIGN_OR_RETURN(
        metrics_,
        ComputeMetricsEx(converted, store.labels(), config_.num_partitions,
                         config_.additional_capacity, spec));
    assignment_ = store.labels();
    iterations_ = run.iterations;
    return Status::OK();
  }

  SpinnerConfig config_;
  int num_shards_;
  ThreadPool pool_;
  bool directed_ = false;
  int64_t num_vertices_ = 0;
  EdgeList edges_;
  CsrGraph converted_;
  std::vector<PartitionId> assignment_;
  PartitionMetrics metrics_;
  int iterations_ = 0;
};

}  // namespace spinner::session_reference

#endif  // SPINNER_TESTS_SESSION_REFERENCE_H_
