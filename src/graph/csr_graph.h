// Immutable compressed-sparse-row graph: the in-memory representation every
// algorithm in this repository consumes. Stores out-arcs with weights.
//
// Two usage regimes:
//  * raw directed/undirected graphs from loaders/generators (weights all 1);
//  * the weighted symmetric form produced by ConvertToWeightedUndirected,
//    where arc weights ∈ {1,2} encode message traffic (paper Eq. 3) and the
//    adjacency is symmetric.
#ifndef SPINNER_GRAPH_CSR_GRAPH_H_
#define SPINNER_GRAPH_CSR_GRAPH_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "graph/types.h"

namespace spinner {

/// Immutable CSR adjacency with per-arc weights and cached weighted degrees.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an edge list over vertices [0, num_vertices). Arcs keep
  /// their multiplicity (no dedup) and are sorted by (src, dst, weight).
  /// `weights` must be empty (all arcs weight 1) or parallel to `edges`.
  /// Fails with InvalidArgument on out-of-range endpoints, a weight/edge
  /// length mismatch or a weight of 0.
  static Result<CsrGraph> FromEdges(int64_t num_vertices,
                                    const EdgeList& edges,
                                    std::span<const EdgeWeight> weights = {});

  /// Number of vertices n.
  int64_t NumVertices() const { return num_vertices_; }

  /// Number of stored arcs (directed edges). For a symmetric graph this is
  /// twice the number of undirected edges.
  int64_t NumArcs() const { return static_cast<int64_t>(targets_.size()); }

  /// Σ over arcs of weight. For a converted graph this equals 2·|E_directed|.
  int64_t TotalArcWeight() const { return total_arc_weight_; }

  /// Out-degree (arc count) of v.
  int64_t OutDegree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Weighted out-degree of v: Σ_u w(v,u). The paper's deg(v) in the
  /// converted graph; the unit in which partition loads are counted.
  int64_t WeightedDegree(VertexId v) const { return weighted_degree_[v]; }

  /// WeightedDegree of every vertex, in vertex order.
  std::span<const int64_t> WeightedDegrees() const { return weighted_degree_; }

  /// Neighbor ids of v, sorted ascending (ties = parallel arcs adjacent).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {targets_.data() + offsets_[v],
            static_cast<size_t>(OutDegree(v))};
  }

  /// Weights parallel to Neighbors(v).
  std::span<const EdgeWeight> Weights(VertexId v) const {
    return {weights_.data() + offsets_[v], static_cast<size_t>(OutDegree(v))};
  }

  /// Offset of v's first arc in the arc arrays; arcs of v occupy
  /// [ArcBegin(v), ArcBegin(v) + OutDegree(v)).
  int64_t ArcBegin(VertexId v) const { return offsets_[v]; }

  /// True iff for every arc (u,v,w) the reverse arc (v,u,w) exists.
  bool IsSymmetric() const;

  /// True iff an arc u->v exists (binary search).
  bool HasArc(VertexId u, VertexId v) const;

  /// Re-exports the arc set as an edge list (each stored arc once).
  EdgeList ToEdgeList() const;

 private:
  // The sort-free symmetric builder behind ConvertToWeightedUndirected and
  // BuildSymmetric (conversion.cc).
  friend Result<CsrGraph> Symmetrize(int64_t num_vertices,
                                     const EdgeList& edges, bool weighted);

  /// Adopts CSR arrays whose rows are already sorted and derives the
  /// weighted degrees and total arc weight: the last step of every builder.
  static CsrGraph Finish(int64_t num_vertices, std::vector<int64_t> offsets,
                         std::vector<VertexId> targets,
                         std::vector<EdgeWeight> weights);

  int64_t num_vertices_ = 0;
  int64_t total_arc_weight_ = 0;
  std::vector<int64_t> offsets_;         // size n+1
  std::vector<VertexId> targets_;        // size NumArcs()
  std::vector<EdgeWeight> weights_;      // size NumArcs()
  std::vector<int64_t> weighted_degree_;  // size n
};

}  // namespace spinner

#endif  // SPINNER_GRAPH_CSR_GRAPH_H_
