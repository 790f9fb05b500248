#include "graph/sharded_store.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <ranges>
#include <tuple>

#include "common/parallel.h"
#include "common/string_util.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"

namespace spinner {

namespace {

/// Shard targets are 32-bit, so ids must stay below kMaxVertices.
Status CheckVertexCount(int64_t num_vertices) {
  if (num_vertices <= ShardedGraphStore::kMaxVertices) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "%lld vertices exceed the shard store's limit of %lld (32-bit ids)",
      static_cast<long long>(num_vertices),
      static_cast<long long>(ShardedGraphStore::kMaxVertices)));
}

}  // namespace

Result<ShardedGraphStore> ShardedGraphStore::Build(const CsrGraph& converted,
                                                   int num_shards) {
  return Build(converted, num_shards, ChunkCount(converted.NumArcs()));
}

Result<ShardedGraphStore> ShardedGraphStore::Build(const CsrGraph& converted,
                                                   int num_shards,
                                                   int chunks) {
  if (num_shards < 1) {
    return Status::InvalidArgument(
        StrFormat("num_shards must be >= 1 (got %d)", num_shards));
  }
  SPINNER_RETURN_IF_ERROR(CheckVertexCount(converted.NumVertices()));

  // Cost-balanced, block-aligned range partition. A vertex costs its
  // out-degree plus kVertexCost, so the cost of the prefix [0, x) is
  // ArcBegin(x) + kVertexCost·x. Shard s begins at the first block
  // boundary where that prefix reaches s·T/S: boundaries never split a
  // block, so the block decomposition stays independent of S (see header).
  // Cuts are capped at the start of the last block, so every shard begins
  // block-aligned and below n even when that block outweighs a share.
  const int64_t n = converted.NumVertices();
  const int64_t blocks = (n + kBlockSize - 1) / kBlockSize;
  const auto boundary = [&](int64_t block) {
    return std::min(block * kBlockSize, n);
  };
  const auto prefix_cost = [&](int64_t block) {
    const int64_t x = boundary(block);
    return (x < n ? converted.ArcBegin(x) : converted.NumArcs()) +
           kVertexCost * x;
  };
  const int64_t total_cost = prefix_cost(blocks);
  const int64_t last_block = std::max<int64_t>(blocks - 1, 0);
  std::vector<VertexId> begins(num_shards + 1, n);
  int64_t block = 0;
  for (int s = 0; s < num_shards; ++s) {
    // The first block b < last_block with S·prefix(b) >= s·T, else
    // last_block (the partition point of an all-below range is its end).
    const auto below_share = [&](int64_t b) {
      return prefix_cost(b) * num_shards < total_cost * s;
    };
    block = *std::ranges::partition_point(
        std::views::iota(block, last_block), below_share);
    begins[s] = boundary(block);
  }

  // Chunk c takes a contiguous group of whole shards, first to check
  // their weights and then, if every weight passed, to fill them.
  chunks = std::clamp(chunks, 1, num_shards);
  const auto for_own_shards = [&](int c, const auto& body) {
    for (int s = static_cast<int>(ChunkBegin(num_shards, chunks, c));
         s < ChunkBegin(num_shards, chunks, c + 1); ++s) {
      body(s);
    }
  };
  // Every weight must fit a Weight and be >= 1 (the label pick's gather
  // relies on it). w - 1 wraps a 0 to the top, so one unsigned max over
  // all arcs checks both ends.
  std::vector<EdgeWeight> max_below(chunks, 0);
  RunChunks(chunks, [&](int c) {
    EdgeWeight most = 0;
    for_own_shards(c, [&](int s) {
      for (VertexId v = begins[s]; v < begins[s + 1]; ++v) {
        for (const EdgeWeight w : converted.Weights(v)) {
          most = std::max(most, w - 1u);
        }
      }
    });
    max_below[c] = most;
  });
  if (std::ranges::max(max_below) >= kMaxArcWeight) {
    return Status::InvalidArgument(StrFormat(
        "arc weight outside [1,%u]: a shard stores 8-bit weights",
        kMaxArcWeight));
  }
  ShardedGraphStore store;
  store.num_vertices_ = n;
  store.num_arcs_ = converted.NumArcs();
  store.total_arc_weight_ = converted.TotalArcWeight();
  store.labels_.assign(n, kNoPartition);
  store.shards_.resize(num_shards);
  store.rebuild_counts_.assign(num_shards, 1);
  for (int s = 0; s < num_shards; ++s) {
    store.shards_[s].begin = begins[s];
    store.shards_[s].end = begins[s + 1];
  }
  RunChunks(chunks, [&](int c) {
    for_own_shards(c, [&](int s) { store.FillShard(converted, s); });
  });
  return store;
}

Result<ShardedGraphStore> ShardedGraphStore::FromEdgeMultiset(
    int64_t num_vertices, const EdgeList& edges, bool directed,
    int num_shards) {
  SPINNER_RETURN_IF_ERROR(CheckVertexCount(num_vertices));
  SPINNER_ASSIGN_OR_RETURN(
      const CsrGraph converted,
      directed ? ConvertToWeightedUndirected(num_vertices, edges)
               : BuildSymmetric(num_vertices, edges));
  SPINNER_ASSIGN_OR_RETURN(ShardedGraphStore store,
                           Build(converted, num_shards));
  store.counted_ = true;
  store.directed_ = directed;
  store.num_edges_ = static_cast<int64_t>(edges.size());
  for (Shard& shard : store.shards_) {
    shard.copies.assign(static_cast<size_t>(shard.NumArcs()), 0);
    shard.self_loops.assign(static_cast<size_t>(shard.NumOwnedVertices()), 0);
  }
  // Count each edge onto its arc in one pass over the edges grouped by
  // tail: entering tail v's group marks the index of each of v's arcs in
  // `slot`, so each head finds its arc in O(1). An edge list sorted by
  // tail (generators and snapshots write one) is already grouped; any
  // other is grouped first by a stable counting sort. The conversion
  // checked every endpoint and kept an arc for every non-loop edge, so
  // every head finds its slot.
  EdgeList regrouped;
  if (!std::ranges::is_sorted(edges, {}, &Edge::src)) {
    std::vector<int64_t> cursor(static_cast<size_t>(num_vertices) + 1, 0);
    for (const Edge& e : edges) ++cursor[e.src + 1];
    std::partial_sum(cursor.begin(), cursor.end(), cursor.begin());
    regrouped.resize(edges.size());
    for (const Edge& e : edges) regrouped[cursor[e.src]++] = e;
  }
  const EdgeList& grouped = regrouped.empty() ? edges : regrouped;
  std::vector<int64_t> slot(static_cast<size_t>(num_vertices));
  for (size_t j = 0; j < grouped.size();) {
    const VertexId v = grouped[j].src;
    Shard& shard = store.shards_[store.ShardOf(v)];
    const int64_t row = v - shard.begin;
    for (int64_t i = shard.offsets[row]; i < shard.offsets[row + 1]; ++i) {
      slot[shard.targets[i]] = i;
    }
    for (; j < grouped.size() && grouped[j].src == v; ++j) {
      if (grouped[j].dst == v) {
        ++shard.self_loops[row];
      } else {
        ++shard.copies[slot[grouped[j].dst]];
      }
    }
  }
  return store;
}

void ShardedGraphStore::FillShard(const CsrGraph& converted, int s) {
  Shard& shard = shards_[s];
  const int64_t n_local = shard.NumOwnedVertices();
  shard.offsets.assign(static_cast<size_t>(n_local) + 1, 0);
  shard.weighted_degree.assign(static_cast<size_t>(n_local), 0);
  int64_t arcs = 0;
  for (VertexId v = shard.begin; v < shard.end; ++v) {
    arcs += converted.OutDegree(v);
  }
  shard.targets.clear();
  shard.weights.clear();
  shard.targets.reserve(static_cast<size_t>(arcs));
  shard.weights.reserve(static_cast<size_t>(arcs));
  for (VertexId v = shard.begin; v < shard.end; ++v) {
    const auto neighbors = converted.Neighbors(v);
    const auto weights = converted.Weights(v);
    shard.targets.insert(shard.targets.end(), neighbors.begin(),
                         neighbors.end());
    shard.weights.insert(shard.weights.end(), weights.begin(), weights.end());
    shard.offsets[v - shard.begin + 1] =
        static_cast<int64_t>(shard.targets.size());
    shard.weighted_degree[v - shard.begin] = converted.WeightedDegree(v);
  }
  shard.RebuildInvDegrees();
}

int ShardedGraphStore::ShardOf(VertexId v) const {
  // Shards are contiguous and sorted by range: binary search the first
  // shard whose end exceeds v. Empty tail shards never win.
  int lo = 0;
  int hi = num_shards() - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (v < shards_[mid].end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void ShardedGraphStore::ResetLoads(int num_partitions) {
  for (Shard& shard : shards_) {
    shard.loads.assign(static_cast<size_t>(num_partitions), 0);
  }
}

std::vector<int64_t> ShardedGraphStore::MergedLoads() const {
  std::vector<int64_t> merged;
  if (shards_.empty()) return merged;
  merged.assign(shards_[0].loads.size(), 0);
  // Fixed shard-order reduction: bit-identical for any thread count.
  for (const Shard& shard : shards_) {
    for (size_t l = 0; l < shard.loads.size(); ++l) {
      merged[l] += shard.loads[l];
    }
  }
  return merged;
}

std::vector<int64_t> ShardedGraphStore::WeightedDegrees() const {
  std::vector<int64_t> degrees;
  degrees.reserve(static_cast<size_t>(num_vertices_));
  for (const Shard& shard : shards_) {
    degrees.insert(degrees.end(), shard.weighted_degree.begin(),
                   shard.weighted_degree.end());
  }
  return degrees;
}

int64_t ShardedGraphStore::Copies(VertexId src, VertexId dst) const {
  if (!counted_ || src < 0 || src >= num_vertices_) return 0;
  const Shard& shard = shards_[ShardOf(src)];
  if (src == dst) return shard.self_loops[src - shard.begin];
  const auto nbrs = shard.Neighbors(src);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), dst);
  if (it == nbrs.end() || *it != dst) return 0;
  return shard.copies[shard.offsets[src - shard.begin] + (it - nbrs.begin())];
}

EdgeList ShardedGraphStore::Edges() const {
  EdgeList edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (const Shard& shard : shards_) {
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      const int64_t row = v - shard.begin;
      const auto nbrs = shard.Neighbors(v);
      const uint32_t* copies = shard.copies.data() + shard.offsets[row];
      // Rows are sorted, so the self-loop goes between the lower and the
      // upper neighbours.
      size_t i = 0;
      for (; i < nbrs.size() && nbrs[i] < v; ++i) {
        edges.insert(edges.end(), copies[i], Edge{v, nbrs[i]});
      }
      edges.insert(edges.end(), shard.self_loops[row], Edge{v, v});
      for (; i < nbrs.size(); ++i) {
        edges.insert(edges.end(), copies[i], Edge{v, nbrs[i]});
      }
    }
  }
  return edges;
}

Result<ShardedGraphStore::Undo> ShardedGraphStore::ApplyDelta(
    const GraphDelta& delta) {
  if (!counted_) {
    return Status::FailedPrecondition(
        "ApplyDelta needs a store built by FromEdgeMultiset");
  }
  if (delta.num_new_vertices < 0) {
    return Status::InvalidArgument("num_new_vertices must be >= 0");
  }
  if (delta.num_new_vertices > kMaxVertices - num_vertices_) {
    return Status::InvalidArgument(StrFormat(
        "the delta grows the graph past the shard store's limit of %lld "
        "vertices (32-bit ids)",
        static_cast<long long>(kMaxVertices)));
  }
  const int64_t new_n = num_vertices_ + delta.num_new_vertices;
  if (!EdgesInRange(delta.added_edges, new_n)) {
    return Status::InvalidArgument(StrFormat(
        "added edge endpoint outside [0,%lld)",
        static_cast<long long>(new_n)));
  }

  // 1. The net change per directed pair, sorted by (src, dst). Every
  //    removal must find its copies in the current multiset.
  struct PairChange {
    Edge edge;
    int64_t net;
  };
  std::vector<PairChange> changes;
  changes.reserve(delta.added_edges.size() + delta.removed_edges.size());
  for (const Edge& e : delta.removed_edges) changes.push_back({e, -1});
  for (const Edge& e : delta.added_edges) changes.push_back({e, +1});
  std::sort(changes.begin(), changes.end(),
            [](const PairChange& a, const PairChange& b) {
              return a.edge < b.edge;
            });
  size_t folded = 0;
  for (size_t i = 0; i < changes.size();) {
    const Edge e = changes[i].edge;
    int64_t removed = 0;
    int64_t net = 0;
    for (; i < changes.size() && changes[i].edge == e; ++i) {
      net += changes[i].net;
      if (changes[i].net < 0) ++removed;
    }
    const int64_t copies = Copies(e.src, e.dst);
    if (copies < removed) {
      return Status::InvalidArgument(StrFormat(
          "removed edge (%lld,%lld) not present",
          static_cast<long long>(e.src), static_cast<long long>(e.dst)));
    }
    if (copies + net > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(StrFormat(
          "edge (%lld,%lld) would exceed %u copies",
          static_cast<long long>(e.src), static_cast<long long>(e.dst),
          std::numeric_limits<uint32_t>::max()));
    }
    if (net != 0) changes[folded++] = {e, net};
  }
  changes.resize(folded);

  // 2. One patch per changed row entry: a changed pair (u, v) patches row
  //    u and, unless it is a self-loop, row v, each with the new counts of
  //    both directions.
  const auto new_copies = [&](VertexId src, VertexId dst) {
    const auto it = std::lower_bound(
        changes.begin(), changes.end(), Edge{src, dst},
        [](const PairChange& c, const Edge& e) { return c.edge < e; });
    const int64_t net =
        it != changes.end() && it->edge == Edge{src, dst} ? it->net : 0;
    return static_cast<uint32_t>(Copies(src, dst) + net);
  };
  std::vector<ArcPatch> patches;
  patches.reserve(2 * changes.size());
  for (const PairChange& c : changes) {
    const VertexId u = c.edge.src;
    const VertexId v = c.edge.dst;
    const uint32_t out = new_copies(u, v);
    if (u == v) {
      patches.push_back({u, v, out, out});
      continue;
    }
    const uint32_t in = new_copies(v, u);
    patches.push_back({u, v, out, in});
    patches.push_back({v, u, in, out});
  }
  const auto by_row_target = [](const ArcPatch& a, const ArcPatch& b) {
    return std::tie(a.row, a.target) < std::tie(b.row, b.target);
  };
  std::sort(patches.begin(), patches.end(), by_row_target);
  // A pair changed in both directions was patched from each side.
  patches.erase(std::unique(patches.begin(), patches.end(),
                            [](const ArcPatch& a, const ArcPatch& b) {
                              return a.row == b.row && a.target == b.target;
                            }),
                patches.end());

  // 3. Rebuild every dirty shard into fresh arrays and swap them in; new
  //    vertices extend the last shard.
  Undo undo;
  undo.num_vertices = num_vertices_;
  undo.num_arcs = num_arcs_;
  undo.total_arc_weight = total_arc_weight_;
  undo.num_edges = num_edges_;
  undo.rebuild_counts = rebuild_counts_;
  undo.loads.reserve(shards_.size());
  for (const Shard& shard : shards_) undo.loads.push_back(shard.loads);

  int64_t weight_delta = 0;
  auto first = patches.cbegin();
  for (int s = 0; s < num_shards(); ++s) {
    const bool last = s + 1 == num_shards();
    const VertexId end = last ? new_n : shards_[s].end;
    const auto stop = std::partition_point(
        first, patches.cend(), [&](const ArcPatch& p) { return p.row < end; });
    if (first == stop && !(last && end != shards_[s].end)) continue;
    Shard fresh = PatchedShard(s, end, {first, stop}, &weight_delta);
    num_arcs_ += fresh.NumArcs() - shards_[s].NumArcs();
    undo.replaced.emplace_back(s, std::move(shards_[s]));
    shards_[s] = std::move(fresh);
    ++rebuild_counts_[s];
    first = stop;
  }
  for (const PairChange& c : changes) num_edges_ += c.net;
  total_arc_weight_ += weight_delta;
  num_vertices_ = new_n;
  labels_.resize(static_cast<size_t>(new_n), kNoPartition);
  return undo;
}

ShardedGraphStore::Shard ShardedGraphStore::PatchedShard(
    int s, VertexId new_end, std::span<const ArcPatch> patches,
    int64_t* weight_delta) const {
  const Shard& old = shards_[s];
  Shard fresh;
  fresh.begin = old.begin;
  fresh.end = new_end;
  fresh.loads = old.loads;
  const auto n_local = static_cast<size_t>(new_end - old.begin);
  fresh.offsets.assign(n_local + 1, 0);
  fresh.weighted_degree.resize(n_local);
  fresh.inv_weighted_degree.resize(n_local);
  fresh.self_loops = old.self_loops;
  fresh.self_loops.resize(n_local, 0);
  const size_t capacity = old.targets.size() + patches.size();
  fresh.targets.reserve(capacity);
  fresh.weights.reserve(capacity);
  fresh.copies.reserve(capacity);
  const auto push = [&](Target target, Weight weight, uint32_t copies) {
    fresh.targets.push_back(target);
    fresh.weights.push_back(weight);
    fresh.copies.push_back(copies);
  };

  size_t p = 0;
  VertexId v = old.begin;
  while (v < new_end) {
    const VertexId next = p < patches.size() ? patches[p].row : new_end;
    if (v < next) {
      // Untouched rows [v, next): one bulk copy of the old rows, then
      // empty rows for vertices past the old end.
      const VertexId copied_end = std::min(next, old.end);
      if (v < copied_end) {
        const int64_t lo = old.offsets[v - old.begin];
        const int64_t hi = old.offsets[copied_end - old.begin];
        const int64_t shift = static_cast<int64_t>(fresh.targets.size()) - lo;
        fresh.targets.insert(fresh.targets.end(), old.targets.begin() + lo,
                             old.targets.begin() + hi);
        fresh.weights.insert(fresh.weights.end(), old.weights.begin() + lo,
                             old.weights.begin() + hi);
        fresh.copies.insert(fresh.copies.end(), old.copies.begin() + lo,
                            old.copies.begin() + hi);
        for (VertexId u = v; u < copied_end; ++u) {
          const int64_t row = u - old.begin;
          fresh.offsets[row + 1] = old.offsets[row + 1] + shift;
          fresh.weighted_degree[row] = old.weighted_degree[row];
          fresh.inv_weighted_degree[row] = old.inv_weighted_degree[row];
        }
        v = copied_end;
      }
      for (; v < next; ++v) {
        const int64_t row = v - old.begin;
        fresh.offsets[row + 1] = static_cast<int64_t>(fresh.targets.size());
        fresh.weighted_degree[row] = 0;
        fresh.inv_weighted_degree[row] = 0.0;
      }
      continue;
    }

    // Row v has patches: merge them into its old arcs by target.
    const int64_t row = v - old.begin;
    int64_t i = v < old.end ? old.offsets[row] : 0;
    const int64_t i_end = v < old.end ? old.offsets[row + 1] : 0;
    int64_t degree = 0;
    while (i < i_end || (p < patches.size() && patches[p].row == v)) {
      const bool patch_next =
          p < patches.size() && patches[p].row == v &&
          (i == i_end || patches[p].target <= old.targets[i]);
      if (!patch_next) {
        push(old.targets[i], old.weights[i], old.copies[i]);
        degree += old.weights[i];
        ++i;
        continue;
      }
      const ArcPatch& a = patches[p++];
      if (a.target == v) {
        fresh.self_loops[row] = a.out;
        continue;
      }
      if (i < i_end && old.targets[i] == a.target) {
        *weight_delta -= old.weights[i];
        ++i;
      }
      if (a.out == 0 && a.in == 0) continue;  // the pair's last copy went
      const Weight weight = static_cast<Weight>(
          directed_ ? (a.out > 0 ? 1 : 0) + (a.in > 0 ? 1 : 0) : 1);
      push(static_cast<Target>(a.target), weight, a.out);
      degree += weight;
      *weight_delta += weight;
    }
    fresh.offsets[row + 1] = static_cast<int64_t>(fresh.targets.size());
    fresh.weighted_degree[row] = degree;
    fresh.inv_weighted_degree[row] =
        degree > 0 ? 1.0 / static_cast<double>(degree) : 0.0;
    ++v;
  }
  return fresh;
}

void ShardedGraphStore::Revert(Undo undo) {
  for (auto& [s, shard] : undo.replaced) shards_[s] = std::move(shard);
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].loads = std::move(undo.loads[s]);
  }
  num_vertices_ = undo.num_vertices;
  num_arcs_ = undo.num_arcs;
  total_arc_weight_ = undo.total_arc_weight;
  num_edges_ = undo.num_edges;
  rebuild_counts_ = std::move(undo.rebuild_counts);
  labels_.resize(static_cast<size_t>(num_vertices_));
}

}  // namespace spinner
