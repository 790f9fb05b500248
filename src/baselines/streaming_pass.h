// The greedy one-pass placement shared by the streaming baselines: LDG,
// Fennel and restreaming LDG differ only in their capacity and their score.
#ifndef SPINNER_BASELINES_STREAMING_PASS_H_
#define SPINNER_BASELINES_STREAMING_PASS_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "graph/csr_graph.h"
#include "graph/types.h"

namespace spinner {

/// Arrival order of the stream: vertex ids, shuffled when `stream_seed` is
/// non-zero (0 = id order).
inline std::vector<VertexId> StreamOrder(int64_t n, uint64_t stream_seed) {
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  if (stream_seed != 0) {
    Rng rng(SplitMix64(stream_seed));
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
  }
  return order;
}

/// The balance unit of `v`: one vertex, or in edge mode its weighted degree
/// (so partition sizes accumulate weighted degrees).
inline int64_t StreamUnit(const CsrGraph& g, VertexId v,
                          bool balance_on_edges) {
  return balance_on_edges ? g.WeightedDegree(v) : 1;
}

/// The sum of every vertex's unit.
inline double TotalStreamUnits(const CsrGraph& g, bool balance_on_edges) {
  return balance_on_edges ? static_cast<double>(g.TotalArcWeight())
                          : static_cast<double>(g.NumVertices());
}

/// LDG's score (Stanton & Kleinberg): neighbours in the partition,
/// discounted by how full it is.
inline auto LdgScore(double capacity) {
  return [capacity](int64_t neighbors, int64_t size) {
    return static_cast<double>(neighbors) *
           (1.0 - static_cast<double>(size) / capacity);
  };
}

/// Places every vertex of `order` on the partition with the best
/// `score(neighbours already there, partition size)` among those its unit
/// fits in under `capacity`. Ties go to the smaller partition, then the lower
/// index; when no partition fits (a hub beyond the slack) the least-loaded
/// one takes it. A vertex that already has a label (a restream) first gives
/// its own size back, so it can stay put.
template <typename Score>
void StreamingPass(const CsrGraph& g, double capacity, bool balance_on_edges,
                   const std::vector<VertexId>& order, Score score,
                   std::vector<PartitionId>& labels,
                   std::vector<int64_t>& sizes) {
  std::vector<int64_t> neighbors(sizes.size(), 0);
  for (VertexId v : order) {
    std::fill(neighbors.begin(), neighbors.end(), 0);
    for (VertexId u : g.Neighbors(v)) {
      if (labels[u] != kNoPartition) ++neighbors[labels[u]];
    }
    const int64_t unit = StreamUnit(g, v, balance_on_edges);
    if (labels[v] != kNoPartition) sizes[labels[v]] -= unit;
    double best = -1e300;
    PartitionId best_part = -1;
    for (PartitionId p = 0; p < static_cast<PartitionId>(sizes.size()); ++p) {
      if (static_cast<double>(sizes[p] + unit) > capacity) continue;
      const double s = score(neighbors[p], sizes[p]);
      if (s > best ||
          (s == best && best_part >= 0 && sizes[p] < sizes[best_part])) {
        best = s;
        best_part = p;
      }
    }
    if (best_part < 0) {
      best_part = static_cast<PartitionId>(
          std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
    }
    labels[v] = best_part;
    sizes[best_part] += unit;
  }
}

}  // namespace spinner

#endif  // SPINNER_BASELINES_STREAMING_PASS_H_
