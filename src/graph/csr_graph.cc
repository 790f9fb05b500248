#include "graph/csr_graph.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/string_util.h"

namespace spinner {

Result<CsrGraph> CsrGraph::FromEdges(int64_t num_vertices,
                                     const EdgeList& edges,
                                     std::span<const EdgeWeight> weights) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!weights.empty() && weights.size() != edges.size()) {
    return Status::InvalidArgument(StrFormat(
        "weight count %zu does not match edge count %zu", weights.size(),
        edges.size()));
  }
  // The LPA label pick reads freq[l] > 0 as "l is a neighbor label"
  // (spinner/lpa_kernel.h), so every arc must weigh at least 1.
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] == 0) {
      return Status::InvalidArgument(
          StrFormat("edge %zu has weight 0 (weights must be >= 1)", i));
    }
  }
  for (const Edge& e : edges) {
    if (e.src < 0 || e.src >= num_vertices || e.dst < 0 ||
        e.dst >= num_vertices) {
      return Status::InvalidArgument(
          StrFormat("edge (%lld,%lld) out of range [0,%lld)",
                    static_cast<long long>(e.src),
                    static_cast<long long>(e.dst),
                    static_cast<long long>(num_vertices)));
    }
  }

  std::vector<int64_t> offsets(num_vertices + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  const auto m = static_cast<int64_t>(edges.size());
  Targets targets(m);
  ArcWeights arc_weights(m);
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    const int64_t pos = cursor[edges[i].src]++;
    targets[pos] = edges[i].dst;
    arc_weights[pos] = weights.empty() ? 1u : weights[i];
  }

  // Sort each vertex's arcs by (target, weight) so that Neighbors() is
  // ordered and HasArc() can binary-search. Rows that arrive sorted are
  // left alone; the others share one scratch buffer.
  std::vector<std::pair<VertexId, EdgeWeight>> row;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const int64_t lo = offsets[v];
    const int64_t hi = offsets[v + 1];
    bool sorted = true;
    for (int64_t i = lo + 1; i < hi && sorted; ++i) {
      sorted = std::pair(targets[i - 1], arc_weights[i - 1]) <=
               std::pair(targets[i], arc_weights[i]);
    }
    if (sorted) continue;
    row.clear();
    for (int64_t i = lo; i < hi; ++i) {
      row.emplace_back(targets[i], arc_weights[i]);
    }
    std::sort(row.begin(), row.end());
    for (int64_t i = lo; i < hi; ++i) {
      targets[i] = row[i - lo].first;
      arc_weights[i] = row[i - lo].second;
    }
  }
  return Finish(num_vertices, std::move(offsets), std::move(targets),
                std::move(arc_weights));
}

CsrGraph CsrGraph::Finish(int64_t num_vertices, std::vector<int64_t> offsets,
                          Targets targets, ArcWeights weights, int chunks) {
  CsrGraph g;
  g.num_vertices_ = num_vertices;
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.weights_ = std::move(weights);
  g.weighted_degree_.assign(num_vertices, 0);
  // Integer sums: the per-chunk totals add up to the same total in any
  // split.
  chunks = std::max(chunks, 1);
  std::vector<int64_t> totals(chunks, 0);
  RunChunks(chunks, [&](int c) {
    const VertexId end = ChunkBegin(num_vertices, chunks, c + 1);
    int64_t total = 0;
    for (VertexId v = ChunkBegin(num_vertices, chunks, c); v < end; ++v) {
      int64_t wd = 0;
      for (EdgeWeight w : g.Weights(v)) wd += w;
      g.weighted_degree_[v] = wd;
      total += wd;
    }
    totals[c] = total;
  });
  g.total_arc_weight_ = std::accumulate(totals.begin(), totals.end(),
                                        int64_t{0});
  return g;
}

bool CsrGraph::IsSymmetric() const {
  for (VertexId u = 0; u < num_vertices_; ++u) {
    auto nbrs = Neighbors(u);
    auto ws = Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      // Find arc v->u with equal weight.
      auto vn = Neighbors(v);
      auto vw = Weights(v);
      auto it = std::lower_bound(vn.begin(), vn.end(), u);
      bool found = false;
      while (it != vn.end() && *it == u) {
        if (vw[it - vn.begin()] == ws[i]) {
          found = true;
          break;
        }
        ++it;
      }
      if (!found) return false;
    }
  }
  return true;
}

bool CsrGraph::HasArc(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

EdgeList CsrGraph::ToEdgeList() const {
  EdgeList out;
  out.reserve(targets_.size());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId u : Neighbors(v)) out.push_back({v, u});
  }
  return out;
}

}  // namespace spinner
