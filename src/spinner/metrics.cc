#include "spinner/metrics.h"

#include <algorithm>

#include "common/string_util.h"

namespace spinner {

namespace {

Status ValidateAssignment(int64_t num_vertices,
                          std::span<const PartitionId> assignment, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (static_cast<int64_t>(assignment.size()) != num_vertices) {
    return Status::InvalidArgument(StrFormat(
        "assignment size %zu != vertex count %lld", assignment.size(),
        static_cast<long long>(num_vertices)));
  }
  for (size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] < 0 || assignment[v] >= k) {
      return Status::InvalidArgument(StrFormat(
          "vertex %zu has label %d outside [0,%d)", v, assignment[v], k));
    }
  }
  return Status::OK();
}

/// The metrics pass over any graph: `for_each_row(visit)` calls
/// visit(v, weighted degree, neighbours, weights) for every vertex in
/// ascending order, so both graph forms sum in the same order.
template <typename ForEachRow>
Result<PartitionMetrics> MetricsOver(int64_t n, int64_t total_weight,
                                     std::span<const PartitionId> assignment,
                                     int k, double c, const BalanceSpec& spec,
                                     ForEachRow for_each_row) {
  SPINNER_RETURN_IF_ERROR(ValidateAssignment(n, assignment, k));
  if (c <= 0) return Status::InvalidArgument("c must be > 0");
  if (!spec.partition_weights.empty()) {
    if (static_cast<int>(spec.partition_weights.size()) != k) {
      return Status::InvalidArgument(
          "partition_weights must have one entry per partition");
    }
    for (double w : spec.partition_weights) {
      if (w <= 0) {
        return Status::InvalidArgument("partition weights must be positive");
      }
    }
  }

  PartitionMetrics m;
  m.loads.assign(k, 0);
  m.total_weight = total_weight;

  int64_t local_weight = 0;
  int64_t total_units = 0;
  double raw_score_locality = 0.0;
  for_each_row([&](VertexId v, int64_t deg_w, auto nbrs, auto wts) {
    const PartitionId lv = assignment[v];
    const int64_t units =
        spec.mode == BalanceMode::kVertices ? 1 : deg_w;
    m.loads[lv] += units;
    total_units += units;
    if (deg_w == 0) return;
    int64_t local_v = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (assignment[nbrs[i]] == lv) local_v += wts[i];
    }
    local_weight += local_v;
    raw_score_locality +=
        static_cast<double>(local_v) / static_cast<double>(deg_w);
  });

  m.cut_weight = m.total_weight - local_weight;
  m.phi = m.total_weight == 0
              ? 1.0
              : static_cast<double>(local_weight) /
                    static_cast<double>(m.total_weight);

  // ρ against each partition's own ideal share.
  double weight_sum = 0.0;
  for (double w : spec.partition_weights) weight_sum += w;
  auto share_of = [&](int l) {
    return spec.partition_weights.empty()
               ? 1.0 / static_cast<double>(k)
               : spec.partition_weights[l] / weight_sum;
  };
  double rho = 0.0;
  for (int l = 0; l < k; ++l) {
    const double ideal = static_cast<double>(total_units) * share_of(l);
    if (ideal > 0) {
      rho = std::max(rho, static_cast<double>(m.loads[l]) / ideal);
    }
  }
  m.rho = rho == 0.0 ? 1.0 : rho;

  // score(G) = Σ_v [locality(v) − b(α(v))/C_{α(v)}], normalized by |V|.
  double raw_penalty = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const int l = assignment[v];
    const double capacity =
        c * static_cast<double>(total_units) * share_of(l);
    if (capacity > 0) {
      raw_penalty += static_cast<double>(m.loads[l]) / capacity;
    }
  }
  m.score = n == 0 ? 0.0
                   : (raw_score_locality - raw_penalty) /
                         static_cast<double>(n);
  return m;
}

}  // namespace

BalanceSpec BalanceSpecOf(const SpinnerConfig& config) {
  return {config.balance_mode, config.partition_weights};
}

Result<PartitionMetrics> ComputeMetrics(
    const CsrGraph& converted, std::span<const PartitionId> assignment, int k,
    double c) {
  return ComputeMetricsEx(converted, assignment, k, c, BalanceSpec{});
}

Result<PartitionMetrics> ComputeMetricsEx(
    const CsrGraph& converted, std::span<const PartitionId> assignment, int k,
    double c, const BalanceSpec& spec) {
  return MetricsOver(
      converted.NumVertices(), converted.TotalArcWeight(), assignment, k, c,
      spec, [&](auto&& visit) {
        for (VertexId v = 0; v < converted.NumVertices(); ++v) {
          visit(v, converted.WeightedDegree(v), converted.Neighbors(v),
                converted.Weights(v));
        }
      });
}

Result<PartitionMetrics> ComputeMetricsEx(
    const ShardedGraphStore& store, std::span<const PartitionId> assignment,
    int k, double c, const BalanceSpec& spec) {
  return MetricsOver(
      store.NumVertices(), store.TotalArcWeight(), assignment, k, c, spec,
      [&](auto&& visit) {
        for (int s = 0; s < store.num_shards(); ++s) {
          const ShardedGraphStore::Shard& shard = store.shard(s);
          for (VertexId v = shard.begin; v < shard.end; ++v) {
            visit(v, shard.WeightedDegreeOf(v), shard.Neighbors(v),
                  shard.WeightsOf(v));
          }
        }
      });
}

Result<std::vector<int64_t>> ComputeLoads(
    const CsrGraph& converted, std::span<const PartitionId> assignment,
    int k) {
  SPINNER_RETURN_IF_ERROR(
      ValidateAssignment(converted.NumVertices(), assignment, k));
  std::vector<int64_t> loads(k, 0);
  for (VertexId v = 0; v < converted.NumVertices(); ++v) {
    loads[assignment[v]] += converted.WeightedDegree(v);
  }
  return loads;
}

Result<double> PartitioningDifference(std::span<const PartitionId> a,
                                      std::span<const PartitionId> b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(StrFormat(
        "assignment sizes differ: %zu vs %zu", a.size(), b.size()));
  }
  if (a.empty()) return 0.0;
  int64_t differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++differing;
  }
  return static_cast<double>(differing) / static_cast<double>(a.size());
}

}  // namespace spinner
