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
// Threading contract: during a parallel phase, shard s may be mutated only
// by the task processing shard s (labels in [begin, end), its own loads),
// while every shard's CSR and the whole label array are readable by all
// tasks. Merges (MergedLoads) run single-threaded between phases, in fixed
// shard order.
#ifndef SPINNER_GRAPH_SHARDED_STORE_H_
#define SPINNER_GRAPH_SHARDED_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
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

  /// One shard: a contiguous, block-aligned vertex range with its CSR
  /// slice, cached weighted degrees and per-partition load counters.
  struct Shard {
    VertexId begin = 0;  // first owned vertex
    VertexId end = 0;    // one past the last owned vertex

    /// Local CSR over [begin, end): offsets has end-begin+1 entries into
    /// targets/weights; targets hold *global* vertex ids.
    std::vector<int64_t> offsets;
    std::vector<VertexId> targets;
    std::vector<EdgeWeight> weights;
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

    int64_t NumOwnedVertices() const { return end - begin; }
    int64_t NumArcs() const { return static_cast<int64_t>(targets.size()); }

    /// Accessors take *global* vertex ids in [begin, end).
    int64_t OutDegree(VertexId v) const {
      return offsets[v - begin + 1] - offsets[v - begin];
    }
    std::span<const VertexId> Neighbors(VertexId v) const {
      return {targets.data() + offsets[v - begin],
              static_cast<size_t>(OutDegree(v))};
    }
    std::span<const EdgeWeight> WeightsOf(VertexId v) const {
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
  /// independent of S.
  static Result<ShardedGraphStore> Build(const CsrGraph& converted,
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

  // --- Incremental update ------------------------------------------------

  /// Re-slices only the shards owning a vertex in `dirty_vertices` from
  /// `new_converted` (same vertex count — a grown graph needs a full
  /// Build(), since block alignment moves every boundary). The existing
  /// cuts are kept even when the delta shifts the cost balance. Labels and
  /// loads are left untouched; the caller re-runs label propagation.
  /// Fails on a vertex-count mismatch or out-of-range dirty vertex.
  Status Update(const CsrGraph& new_converted,
                std::span<const VertexId> dirty_vertices);

  /// How many times shard s has been (re)built — Build counts once per
  /// shard; Update increments only the dirty shards. Observability hook
  /// for the "deltas touch only owning shards" contract.
  int64_t rebuild_count(int s) const { return rebuild_counts_[s]; }

 private:
  /// Copies shard s's CSR slice out of `converted`.
  void FillShard(const CsrGraph& converted, int s);

  int64_t num_vertices_ = 0;
  int64_t num_arcs_ = 0;
  int64_t total_arc_weight_ = 0;
  std::vector<Shard> shards_;
  std::vector<PartitionId> labels_;
  std::vector<int64_t> rebuild_counts_;
};

}  // namespace spinner

#endif  // SPINNER_GRAPH_SHARDED_STORE_H_
