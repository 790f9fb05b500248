// ShardedGraphStore: the converted (symmetric, weighted) graph range-
// partitioned into S shards, each owning a shard-local CSR slice, its slice
// of the label array and per-partition load counters. This is the in-
// process foundation for the distributed store the ROADMAP targets: every
// piece of mutable partitioning state has exactly one owning shard, cross-
// shard information flows only through explicit merges, and graph deltas
// rebuild only the shards owning the touched vertices.
//
// Shard cuts are cost-balanced: a superstep lasts as long as its most
// loaded worker, and a vertex's superstep cost is dominated by its arcs.
// Shard s begins at the first block boundary where the running cost (out-
// degree + kVertexCost per vertex) reaches s·T/S, T being the total cost,
// capped at the start of the last block so every shard begins block-
// aligned inside the graph. On a power-law graph a shard of hubs thus
// owns fewer vertices than a shard of leaves. Cuts depend on the shard count and the degree
// sequence only — never on thread, worker or capacity counts.
//
// Determinism contract: shard boundaries are aligned to fixed-size vertex
// blocks (kBlockSize) that do not depend on the shard count. Any
// computation that works block-at-a-time (the shard-parallel Spinner
// superstep in spinner/sharded_program.cc) therefore sees identical block
// contents for every S, which is what makes partitioning results
// bit-identical across shard and thread counts, S = 1 included.
//
// A session store (FromEdgeMultiset) also keeps the directed edge multiset
// the CSR was converted from, as a copy count next to each arc plus a
// self-loop count per vertex, and ApplyDelta patches it in place: a graph
// delta costs O(Δ log Δ) plus one merge pass over each dirty shard, never
// a reconversion of the whole graph. Presence and weight of an arc follow
// from the counts of its two directions, out(v→w) in row v and out(w→v)
// in row w: the arc exists iff out(v→w) + out(w→v) > 0, and its Eq. 3
// weight is [out(v→w) > 0] + [out(w→v) > 0] (1 for an undirected store).
//
// Threading contract: during a parallel phase, shard s may be mutated only
// by the task processing shard s (labels in [begin, end), its own loads),
// while every shard's CSR and the whole label array are readable by all
// tasks. Merges (MergedLoads) run single-threaded between phases, in fixed
// shard order.
#ifndef SPINNER_GRAPH_SHARDED_STORE_H_
#define SPINNER_GRAPH_SHARDED_STORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/delta.h"
#include "graph/types.h"

namespace spinner {

class ShardedGraphStore {
 public:
  /// Vertex-block granularity of shard boundaries. Fixed so that block
  /// contents are independent of the shard count (see header comment).
  static constexpr int64_t kBlockSize = 256;

  /// Fixed per-vertex cost of a shard cut, in arcs: the per-vertex work of
  /// a superstep (label pick, migration draw, block bookkeeping) that does
  /// not scale with degree. Fitted from measured per-worker compute time
  /// on power-law graphs (docs/PERFORMANCE.md, "Balancing the multi-process
  /// superstep").
  static constexpr int64_t kVertexCost = 12;

  /// Shard arrays are compact: a neighbour id is 32 bits and an arc
  /// weight 8 bits, 5 bytes per arc. After Eq. 3 a weight is 1 or 2, so
  /// only the id range limits what a store can hold: at most kMaxVertices
  /// vertices, and arc weights in [1, kMaxArcWeight].
  using Target = uint32_t;
  using Weight = uint8_t;
  static constexpr int64_t kMaxVertices = int64_t{1} << 32;
  static constexpr EdgeWeight kMaxArcWeight = 255;

  /// One shard: a contiguous, block-aligned vertex range with its CSR
  /// slice, cached weighted degrees and per-partition load counters.
  struct Shard {
    VertexId begin = 0;  // first owned vertex
    VertexId end = 0;    // one past the last owned vertex

    /// Local CSR over [begin, end): offsets has end-begin+1 entries into
    /// targets/weights; targets hold *global* vertex ids.
    std::vector<int64_t> offsets;
    std::vector<Target> targets;
    std::vector<Weight> weights;
    /// Cached weighted degree per owned vertex.
    std::vector<int64_t> weighted_degree;
    /// Cached 1 / weighted_degree (0 for isolated vertices): Eq. 8's
    /// locality term is freq · (1/deg), and the reciprocal is loop
    /// invariant across supersteps, so the division is paid once per
    /// build instead of once per vertex per superstep. Derived — rebuilt
    /// by RebuildInvDegrees(), never serialized.
    std::vector<double> inv_weighted_degree;

    /// Shard-local per-partition loads b_s(l); k entries after ResetLoads.
    std::vector<int64_t> loads;

    /// Session stores only (empty otherwise, and never serialized): the
    /// directed edge multiset. copies[i] counts the v→targets[i] edges of
    /// the arc's row v (0 when only the reverse direction exists);
    /// self_loops counts each owned vertex's v→v edges, which the CSR
    /// drops.
    std::vector<uint32_t> copies;
    std::vector<uint32_t> self_loops;

    int64_t NumOwnedVertices() const { return end - begin; }
    int64_t NumArcs() const { return static_cast<int64_t>(targets.size()); }

    /// Accessors take *global* vertex ids in [begin, end).
    int64_t OutDegree(VertexId v) const {
      return offsets[v - begin + 1] - offsets[v - begin];
    }
    std::span<const Target> Neighbors(VertexId v) const {
      return {targets.data() + offsets[v - begin],
              static_cast<size_t>(OutDegree(v))};
    }
    std::span<const Weight> WeightsOf(VertexId v) const {
      return {weights.data() + offsets[v - begin],
              static_cast<size_t>(OutDegree(v))};
    }
    int64_t WeightedDegreeOf(VertexId v) const {
      return weighted_degree[v - begin];
    }
    double InvWeightedDegreeOf(VertexId v) const {
      return inv_weighted_degree[v - begin];
    }

    /// Recomputes inv_weighted_degree from weighted_degree. Every site
    /// that fills or deserializes weighted_degree must call this before
    /// the shard reaches a superstep body.
    void RebuildInvDegrees() {
      inv_weighted_degree.resize(weighted_degree.size());
      for (size_t i = 0; i < weighted_degree.size(); ++i) {
        inv_weighted_degree[i] =
            weighted_degree[i] > 0
                ? 1.0 / static_cast<double>(weighted_degree[i])
                : 0.0;
      }
    }
  };

  ShardedGraphStore() = default;

  /// Slices `converted` into `num_shards` block-aligned shards of about
  /// equal cost (out-degree + kVertexCost per vertex): each shard's cost
  /// is within one block's cost of the total over `num_shards`. A shard
  /// may own zero vertices when one block outweighs a shard's share or
  /// there are fewer blocks than shards; that is fine and keeps results
  /// independent of S. Fails with InvalidArgument, before allocating
  /// anything, when the graph has more than kMaxVertices vertices or an
  /// arc weight outside [1, kMaxArcWeight].
  ///
  /// The weight check and the shard fills run in parallel, shard by
  /// shard, as ChunkCount(NumArcs()) chunks of whole shards (at most one
  /// per shard; common/parallel.h). The store does not depend on it.
  static Result<ShardedGraphStore> Build(const CsrGraph& converted,
                                         int num_shards);

  /// Build with `chunks` chunks (clamped to [1, num_shards]).
  static Result<ShardedGraphStore> Build(const CsrGraph& converted,
                                         int num_shards, int chunks);

  /// Converts `edges` over `num_vertices` vertices (Eq. 3 weights when
  /// `directed`, weight 1 otherwise), slices the result like Build() and
  /// keeps the edge multiset, so Edges() and ApplyDelta() work. Rejects
  /// more than kMaxVertices vertices before converting.
  static Result<ShardedGraphStore> FromEdgeMultiset(int64_t num_vertices,
                                                    const EdgeList& edges,
                                                    bool directed,
                                                    int num_shards);

  // --- Topology ----------------------------------------------------------

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t NumVertices() const { return num_vertices_; }
  int64_t NumArcs() const { return num_arcs_; }
  int64_t TotalArcWeight() const { return total_arc_weight_; }

  /// Number of kBlockSize vertex blocks (== ceil(n / kBlockSize)).
  int64_t NumBlocks() const {
    return (num_vertices_ + kBlockSize - 1) / kBlockSize;
  }

  /// The shard owning vertex v.
  int ShardOf(VertexId v) const;

  const Shard& shard(int s) const { return shards_[s]; }
  Shard& mutable_shard(int s) { return shards_[s]; }

  // --- Labels (merged global view; shard-local write ownership) ----------

  /// The label array: one entry per vertex. The merged global view — reads
  /// may come from anywhere; during a parallel phase shard s writes only
  /// its slice [shard(s).begin, shard(s).end).
  std::vector<PartitionId>& labels() { return labels_; }
  const std::vector<PartitionId>& labels() const { return labels_; }

  // --- Loads -------------------------------------------------------------

  /// Resizes every shard's load counters to `num_partitions` and zeroes
  /// them (start of a partitioning run, or a rescale to a new k).
  void ResetLoads(int num_partitions);

  /// Global loads b(l) = Σ_s b_s(l), reduced in fixed shard order.
  std::vector<int64_t> MergedLoads() const;

  /// Weighted degree of every vertex, in vertex order.
  std::vector<int64_t> WeightedDegrees() const;

  // --- Edge multiset (FromEdgeMultiset stores only) ----------------------

  /// True if the CSR was converted with Eq. 3 weights.
  bool directed() const { return directed_; }

  /// Number of directed edges, duplicates and self-loops included.
  int64_t NumEdges() const { return num_edges_; }

  /// Number of src→dst copies in the multiset (0 for ids outside the
  /// graph).
  int64_t Copies(VertexId src, VertexId dst) const;

  /// The edge multiset in canonical order: sorted by (src, dst), each
  /// edge repeated once per copy. O(n + m).
  EdgeList Edges() const;

  // --- Incremental update ------------------------------------------------

  /// What ApplyDelta replaced; Revert() puts it back.
  class Undo {
   private:
    friend class ShardedGraphStore;
    int64_t num_vertices = 0;
    int64_t num_arcs = 0;
    int64_t total_arc_weight = 0;
    int64_t num_edges = 0;
    std::vector<std::pair<int, Shard>> replaced;  // dirty shards, as were
    std::vector<std::vector<int64_t>> loads;      // every shard's loads
    std::vector<int64_t> rebuild_counts;
  };

  /// Applies `delta` with the semantics of spinner::ApplyDelta (remove,
  /// then add; a removal cancels one exact (src, dst) copy). The whole
  /// delta is checked against the counts first: on error nothing changed.
  /// Each dirty shard — one owning a vertex whose row or self-loop count
  /// changes — is rebuilt by one merge pass into fresh arrays that are
  /// swapped in; the old ones move into the returned Undo. New vertices
  /// join the last shard, whose end is the only cut that moves. Labels of
  /// new vertices are kNoPartition and loads are left as they are; the
  /// caller re-runs label propagation. A delta that would grow the graph
  /// past kMaxVertices vertices is rejected.
  Result<Undo> ApplyDelta(const GraphDelta& delta);

  /// Restores the CSR, multiset, vertex range, loads and rebuild counts as
  /// they were before the ApplyDelta that returned `undo` (which must be
  /// the latest one). Labels are truncated to the old vertex range but
  /// otherwise left to the caller.
  void Revert(Undo undo);

  /// How many times shard s has been (re)built — Build counts once per
  /// shard; ApplyDelta increments only the dirty shards. Observability
  /// hook for the "deltas touch only owning shards" contract.
  int64_t rebuild_count(int s) const { return rebuild_counts_[s]; }

 private:
  /// A changed directed pair of one row: the new copy counts of row→target
  /// (out) and target→row (in). target == row patches the self-loop count.
  struct ArcPatch {
    VertexId row;
    VertexId target;
    uint32_t out;
    uint32_t in;
  };

  /// Copies shard s's CSR slice out of `converted`.
  void FillShard(const CsrGraph& converted, int s);

  /// Shard s rebuilt over [begin, new_end) with `patches` (sorted by
  /// (row, target), rows inside the range) merged in. Adds the change in
  /// arc weight to *weight_delta.
  Shard PatchedShard(int s, VertexId new_end,
                     std::span<const ArcPatch> patches,
                     int64_t* weight_delta) const;

  int64_t num_vertices_ = 0;
  int64_t num_arcs_ = 0;
  int64_t total_arc_weight_ = 0;
  bool counted_ = false;  // built by FromEdgeMultiset
  bool directed_ = false;
  int64_t num_edges_ = 0;
  std::vector<Shard> shards_;
  std::vector<PartitionId> labels_;
  std::vector<int64_t> rebuild_counts_;
};

}  // namespace spinner

#endif  // SPINNER_GRAPH_SHARDED_STORE_H_
