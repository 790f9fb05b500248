#include "apps/pagerank.h"

namespace spinner::apps {

void PageRankProgram::RegisterAggregators(
    pregel::AggregatorRegistry* registry) {
  registry->Register(kDanglingAgg,
                     std::make_unique<pregel::DoubleSumAggregator>());
}

void PageRankProgram::Compute(PageRankHandle& vertex,
                              std::span<const double> messages) {
  auto& value = vertex.value();
  const auto n = static_cast<double>(vertex.total_num_vertices());

  if (vertex.superstep() == 0) {
    value.rank = 1.0;
  } else {
    double incoming = 0.0;
    for (double m : messages) incoming += m;
    // Dangling mass aggregated in the previous superstep is shared evenly.
    const double dangling =
        vertex.Aggregated<pregel::DoubleSumAggregator>(kDanglingAgg)->value();
    value.rank =
        (1.0 - damping_) + damping_ * (incoming + dangling / n);
  }

  const auto out_degree = static_cast<double>(vertex.edges().size());
  if (out_degree > 0) {
    vertex.SendMessageToAllEdges(value.rank / out_degree);
  } else {
    vertex.AggregatePartial<pregel::DoubleSumAggregator>(kDanglingAgg)
        ->Add(value.rank);
  }
}

bool PageRankProgram::MasterCompute(pregel::MasterContext& ctx) {
  // Superstep s computes ranks of iteration s; stop after the configured
  // number of rank updates.
  return ctx.superstep() + 1 < num_iterations_;
}

std::vector<double> PageRankReference(const CsrGraph& graph,
                                      int num_iterations, double damping) {
  const int64_t n = graph.NumVertices();
  std::vector<double> rank(n, 1.0);
  std::vector<double> next(n, 0.0);
  for (int iter = 1; iter < num_iterations; ++iter) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (VertexId v = 0; v < n; ++v) {
      const auto deg = static_cast<double>(graph.OutDegree(v));
      if (deg == 0) {
        dangling += rank[v];
        continue;
      }
      const double share = rank[v] / deg;
      for (VertexId u : graph.Neighbors(v)) next[u] += share;
    }
    for (VertexId v = 0; v < n; ++v) {
      next[v] = (1.0 - damping) +
                damping * (next[v] + dangling / static_cast<double>(n));
    }
    std::swap(rank, next);
  }
  return rank;
}

}  // namespace spinner::apps
