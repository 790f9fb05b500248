#include "graph/stats.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace spinner {

namespace {

/// Fills the degree fields of `s` from every vertex's out-degree.
GraphStats WithDegrees(GraphStats s, std::vector<int64_t> degrees) {
  if (s.num_vertices == 0) return s;
  s.min_degree = *std::min_element(degrees.begin(), degrees.end());
  s.max_degree = *std::max_element(degrees.begin(), degrees.end());
  s.mean_degree =
      static_cast<double>(s.num_arcs) / static_cast<double>(s.num_vertices);
  const auto p99_idx =
      static_cast<size_t>(0.99 * static_cast<double>(s.num_vertices - 1));
  std::nth_element(degrees.begin(), degrees.begin() + p99_idx, degrees.end());
  s.p99_degree = degrees[p99_idx];
  return s;
}

}  // namespace

GraphStats ComputeGraphStats(const CsrGraph& graph) {
  GraphStats s;
  s.num_vertices = graph.NumVertices();
  s.num_arcs = graph.NumArcs();
  s.total_arc_weight = graph.TotalArcWeight();
  std::vector<int64_t> degrees(s.num_vertices);
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    degrees[v] = graph.OutDegree(v);
  }
  return WithDegrees(s, std::move(degrees));
}

GraphStats ComputeGraphStats(const ShardedGraphStore& store) {
  GraphStats s;
  s.num_vertices = store.NumVertices();
  s.num_arcs = store.NumArcs();
  s.total_arc_weight = store.TotalArcWeight();
  std::vector<int64_t> degrees;
  degrees.reserve(static_cast<size_t>(s.num_vertices));
  for (int i = 0; i < store.num_shards(); ++i) {
    const ShardedGraphStore::Shard& shard = store.shard(i);
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      degrees.push_back(shard.OutDegree(v));
    }
  }
  return WithDegrees(s, std::move(degrees));
}

std::string ToString(const GraphStats& s) {
  return StrFormat(
      "|V|=%s arcs=%s weight=%s degree[min=%lld mean=%.1f p99=%lld max=%lld]",
      WithCommas(s.num_vertices).c_str(), WithCommas(s.num_arcs).c_str(),
      WithCommas(s.total_arc_weight).c_str(),
      static_cast<long long>(s.min_degree), s.mean_degree,
      static_cast<long long>(s.p99_degree),
      static_cast<long long>(s.max_degree));
}

}  // namespace spinner
