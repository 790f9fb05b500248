// Partitioning quality metrics (paper Eq. 16 and §V.D).
#ifndef SPINNER_SPINNER_METRICS_H_
#define SPINNER_SPINNER_METRICS_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"

namespace spinner {

/// Balance objective for metric computation: what loads count
/// (edges/vertices) and the per-partition capacity shares (empty =
/// homogeneous).
struct BalanceSpec {
  BalanceMode mode = BalanceMode::kEdges;
  std::vector<double> partition_weights;
};

/// The balance objective a run of `config` optimizes (balance_mode and
/// partition_weights).
BalanceSpec BalanceSpecOf(const SpinnerConfig& config);

/// Quality summary of an assignment over a converted (weighted symmetric)
/// graph.
struct PartitionMetrics {
  /// φ: weighted ratio of local edges — the fraction of message traffic
  /// that stays within a partition.
  double phi = 0.0;
  /// ρ: maximum normalized load — max_l b(l) / (|E|/k), where b(l) counts
  /// weighted out-degrees (message slots), so Σ_l b(l) = |E|.
  double rho = 1.0;
  /// Normalized global score score(G)/|V| (Eq. 10); depends on c through
  /// the penalty term.
  double score = 0.0;
  /// b(l) per partition.
  std::vector<int64_t> loads;
  /// Total arc weight crossing partitions (unnormalized cut).
  int64_t cut_weight = 0;
  /// Total arc weight |E| (Σ_v deg_w(v)).
  int64_t total_weight = 0;
};

/// Computes all metrics in one pass over the arcs.
/// `assignment` must cover every vertex with a label in [0, k).
/// `c` feeds the penalty term of the score (use the run's config value).
Result<PartitionMetrics> ComputeMetrics(const CsrGraph& converted,
                                        std::span<const PartitionId> assignment,
                                        int k, double c);

/// Generalized metrics: loads/ρ under an arbitrary balance objective
/// (vertex-balanced mode, heterogeneous capacity shares). φ is always edge
/// locality. ρ is measured against each partition's own ideal share.
Result<PartitionMetrics> ComputeMetricsEx(
    const CsrGraph& converted, std::span<const PartitionId> assignment,
    int k, double c, const BalanceSpec& spec);

/// The same metrics over the graph a ShardedGraphStore holds, summed in
/// the same vertex order, so every value is bit-identical to the CsrGraph
/// form over the same graph.
Result<PartitionMetrics> ComputeMetricsEx(
    const ShardedGraphStore& store, std::span<const PartitionId> assignment,
    int k, double c, const BalanceSpec& spec);

/// b(l) per partition only (cheaper than full metrics).
Result<std::vector<int64_t>> ComputeLoads(
    const CsrGraph& converted, std::span<const PartitionId> assignment, int k);

/// Paper §V.D "partitioning difference": the fraction of vertices whose
/// label differs between two assignments — the vertices a graph store would
/// have to shuffle. Both assignments must have equal size.
Result<double> PartitioningDifference(std::span<const PartitionId> a,
                                      std::span<const PartitionId> b);

}  // namespace spinner

#endif  // SPINNER_SPINNER_METRICS_H_
