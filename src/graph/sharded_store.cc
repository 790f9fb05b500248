#include "graph/sharded_store.h"

#include <algorithm>
#include <ranges>

#include "common/string_util.h"

namespace spinner {

Result<ShardedGraphStore> ShardedGraphStore::Build(const CsrGraph& converted,
                                                   int num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument(
        StrFormat("num_shards must be >= 1 (got %d)", num_shards));
  }
  ShardedGraphStore store;
  store.num_vertices_ = converted.NumVertices();
  store.num_arcs_ = converted.NumArcs();
  store.total_arc_weight_ = converted.TotalArcWeight();
  store.labels_.assign(store.num_vertices_, kNoPartition);
  store.shards_.resize(num_shards);
  store.rebuild_counts_.assign(num_shards, 0);

  // Cost-balanced, block-aligned range partition. A vertex costs its
  // out-degree plus kVertexCost, so the cost of the prefix [0, x) is
  // ArcBegin(x) + kVertexCost·x. Shard s begins at the first block
  // boundary where that prefix reaches s·T/S: boundaries never split a
  // block, so the block decomposition stays independent of S (see header).
  // Cuts are capped at the start of the last block, so every shard begins
  // block-aligned and below n even when that block outweighs a share.
  const int64_t n = store.num_vertices_;
  const int64_t blocks = store.NumBlocks();
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
  int64_t block = 0;
  for (int s = 0; s < num_shards; ++s) {
    // The first block b < last_block with S·prefix(b) >= s·T, else
    // last_block (the partition point of an all-below range is its end).
    const auto below_share = [&](int64_t b) {
      return prefix_cost(b) * num_shards < total_cost * s;
    };
    block = *std::ranges::partition_point(
        std::views::iota(block, last_block), below_share);
    store.shards_[s].begin = boundary(block);
  }
  for (int s = 0; s < num_shards; ++s) {
    Shard& shard = store.shards_[s];
    shard.end = s + 1 < num_shards ? store.shards_[s + 1].begin : n;
    store.FillShard(converted, s);
    ++store.rebuild_counts_[s];
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

Status ShardedGraphStore::Update(const CsrGraph& new_converted,
                                 std::span<const VertexId> dirty_vertices) {
  if (new_converted.NumVertices() != num_vertices_) {
    return Status::InvalidArgument(StrFormat(
        "Update requires an unchanged vertex count (store has %lld, graph "
        "has %lld); rebuild the store for a grown graph",
        static_cast<long long>(num_vertices_),
        static_cast<long long>(new_converted.NumVertices())));
  }
  std::vector<bool> dirty(shards_.size(), false);
  for (const VertexId v : dirty_vertices) {
    if (v < 0 || v >= num_vertices_) {
      return Status::InvalidArgument(
          StrFormat("dirty vertex %lld outside [0, %lld)",
                    static_cast<long long>(v),
                    static_cast<long long>(num_vertices_)));
    }
    dirty[ShardOf(v)] = true;
  }
  for (int s = 0; s < num_shards(); ++s) {
    if (!dirty[s]) continue;
    FillShard(new_converted, s);
    ++rebuild_counts_[s];
  }
  num_arcs_ = new_converted.NumArcs();
  total_arc_weight_ = new_converted.TotalArcWeight();
  return Status::OK();
}

}  // namespace spinner
