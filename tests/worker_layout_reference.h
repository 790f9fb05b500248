// Test-only reference implementation of the worker index layout: the
// original sort-and-unique BuildWorkerLayout and the binary-search
// RemapTargetsToSlots, kept verbatim so the differential tests can compare
// the library's one-pass dist::RemapToWorkerLayout against them.
#ifndef SPINNER_TESTS_WORKER_LAYOUT_REFERENCE_H_
#define SPINNER_TESTS_WORKER_LAYOUT_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/result.h"
#include "common/string_util.h"
#include "dist/worker.h"
#include "graph/sharded_store.h"

namespace spinner::worker_layout_reference {

using dist::WorkerLayout;

inline Result<WorkerLayout> BuildWorkerLayout(
    std::span<const ShardedGraphStore::Shard> shards, int64_t num_vertices) {
  WorkerLayout layout;
  if (shards.empty()) return layout;  // a shardless worker idles validly
  layout.owned_begin = shards.front().begin;
  layout.owned_end = shards.back().end;
  if (layout.owned_begin < 0 || layout.owned_end > num_vertices ||
      layout.owned_begin % ShardedGraphStore::kBlockSize != 0) {
    return Status::InvalidArgument(
        "worker shard range is outside the graph or not block-aligned");
  }
  VertexId previous_end = layout.owned_begin;
  for (const ShardedGraphStore::Shard& shard : shards) {
    // Contiguity is load-bearing, not just tidy: Owns() is a single
    // interval test and the compact label array has one slot per owned
    // vertex with no holes.
    if (shard.begin != previous_end || shard.end < shard.begin) {
      return Status::InvalidArgument(
          "worker shard slices are not contiguous ascending ranges");
    }
    previous_end = shard.end;
    for (const VertexId t : shard.targets) {
      if (t >= num_vertices) {
        return Status::InvalidArgument(
            "shard slice target outside the vertex range");
      }
      if (!layout.Owns(t)) layout.subscription.push_back(t);
    }
  }
  std::sort(layout.subscription.begin(), layout.subscription.end());
  layout.subscription.erase(
      std::unique(layout.subscription.begin(), layout.subscription.end()),
      layout.subscription.end());
  return layout;
}

inline Status RemapTargetsToSlots(const WorkerLayout& layout,
                                  ShardedGraphStore::Shard* shard) {
  for (ShardedGraphStore::Target& t : shard->targets) {
    if (layout.Owns(t)) {
      t = static_cast<ShardedGraphStore::Target>(t - layout.owned_begin);
      continue;
    }
    const auto it = std::lower_bound(layout.subscription.begin(),
                                     layout.subscription.end(), t);
    if (it == layout.subscription.end() || *it != t) {
      return Status::InvalidArgument(StrFormat(
          "target %lld is neither owned nor subscribed",
          static_cast<long long>(t)));
    }
    t = static_cast<ShardedGraphStore::Target>(
        layout.owned_count() + (it - layout.subscription.begin()));
  }
  return Status::OK();
}

}  // namespace spinner::worker_layout_reference

#endif  // SPINNER_TESTS_WORKER_LAYOUT_REFERENCE_H_
