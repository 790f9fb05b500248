#include "graph/conversion.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "graph/edge_list.h"

namespace spinner {

namespace {

// Both scatter passes below write to effectively random slots of arrays
// much larger than the cache. Each touches its slot through a cursor that
// is itself a random read, so it prefetches the cursor of the element
// 2 * kAhead ahead and the slot of the element kAhead ahead, overlapping
// the misses instead of paying them one at a time.
constexpr int64_t kAhead = 8;

template <typename T>
void PrefetchForWrite(const T* p) {
  __builtin_prefetch(p, /*rw=*/1);
}

}  // namespace

// Both conversions: O(n + m) passes plus a sort of each vertex's bucket,
// never a sort of the whole edge list. `weighted` selects Eq. 3 weights;
// otherwise every arc weighs 1.
Result<CsrGraph> Symmetrize(int64_t num_vertices, const EdgeList& edges,
                            bool weighted) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!EdgesInRange(edges, num_vertices)) {
    return Status::InvalidArgument(
        StrFormat("edge endpoint out of range [0,%lld)",
                  static_cast<long long>(num_vertices)));
  }

  // 1. Bucket every non-loop edge by its lower endpoint as the key
  //    hi<<2 | dir (bit 0: lo->hi present, bit 1: hi->lo present). A
  //    counting pass sizes the buckets; filling them back to front, over
  //    the edges in reverse, keeps each bucket in input order, so rows of
  //    a sorted input stay sorted. `upper[v]` ends as bucket v's start.
  std::vector<int64_t> upper(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    if (e.src != e.dst) ++upper[std::min(e.src, e.dst)];
  }
  std::partial_sum(upper.begin(), upper.end(), upper.begin());
  std::vector<uint64_t> keys(upper[num_vertices]);
  const auto lower_end = [&](int64_t i) {
    return std::min(edges[i].src, edges[i].dst);
  };
  for (auto i = static_cast<int64_t>(edges.size()) - 1; i >= 0; --i) {
    if (i >= 2 * kAhead) PrefetchForWrite(&upper[lower_end(i - 2 * kAhead)]);
    // Only a non-loop edge still has its slot ahead of the bucket cursor.
    if (i >= kAhead && edges[i - kAhead].src != edges[i - kAhead].dst) {
      PrefetchForWrite(&keys[upper[lower_end(i - kAhead)] - 1]);
    }
    const Edge& e = edges[i];
    if (e.src == e.dst) continue;  // self-loops carry no cut information
    const bool forward = e.src < e.dst;
    const VertexId hi = forward ? e.dst : e.src;
    keys[--upper[lower_end(i)]] =
        (static_cast<uint64_t>(hi) << 2) | (forward ? 1u : 2u);
  }

  // 2. Sort each short bucket (unless it is already in order) and merge
  //    the keys of one unordered pair, OR-ing their direction bits. The
  //    merged rows are compacted to the front of `keys`, and `upper` is
  //    rewritten to their offsets. `offsets[hi + 1]` counts hi's lower
  //    neighbours on the way.
  std::vector<int64_t> offsets(num_vertices + 1, 0);
  const auto by_hi = [](uint64_t a, uint64_t b) { return a >> 2 < b >> 2; };
  int64_t out = 0;
  for (VertexId lo = 0; lo < num_vertices; ++lo) {
    const auto begin = keys.begin() + upper[lo];
    const auto end = keys.begin() + upper[lo + 1];
    upper[lo] = out;
    if (!std::is_sorted(begin, end, by_hi)) std::sort(begin, end);
    for (auto it = begin; it != end;) {
      uint64_t key = *it;
      for (++it; it != end && *it >> 2 == key >> 2; ++it) key |= *it;
      keys[out++] = key;
      ++offsets[(key >> 2) + 1];
    }
  }
  upper[num_vertices] = out;

  // 3. Row v is [lower neighbours, ascending] then [upper neighbours,
  //    ascending]: sorted by construction. `offsets[v + 1]` serves as v's
  //    fill cursor, starting at the row's first slot. Walking lo upwards,
  //    the transpose writes lo into each upper neighbour's lower part in
  //    ascending order, and by the time lo's own turn comes its lower part
  //    is complete, so its cursor points at the upper part. Every cursor
  //    ends at its row's end, which is the finished offsets array.
  int64_t start = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const int64_t degree = offsets[v + 1] + (upper[v + 1] - upper[v]);
    offsets[v + 1] = start;
    start += degree;
  }
  std::vector<VertexId> targets(start);
  std::vector<EdgeWeight> weights(start);
  const auto cursor = [&](int64_t i) -> int64_t& {
    return offsets[(keys[i] >> 2) + 1];
  };
  for (VertexId lo = 0; lo < num_vertices; ++lo) {
    int64_t& own = offsets[lo + 1];
    for (int64_t i = upper[lo]; i < upper[lo + 1]; ++i) {
      if (i + 2 * kAhead < out) PrefetchForWrite(&cursor(i + 2 * kAhead));
      if (i + kAhead < out) {
        PrefetchForWrite(&targets[cursor(i + kAhead)]);
        PrefetchForWrite(&weights[cursor(i + kAhead)]);
      }
      const auto hi = static_cast<VertexId>(keys[i] >> 2);
      // Eq. 3: both directions present => weight 2.
      const EdgeWeight w = (weighted && (keys[i] & 3) == 3) ? 2u : 1u;
      targets[own] = hi;
      weights[own++] = w;
      int64_t& other = cursor(i);
      targets[other] = lo;
      weights[other++] = w;
    }
  }
  return CsrGraph::Finish(num_vertices, std::move(offsets),
                          std::move(targets), std::move(weights));
}

Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges) {
  return Symmetrize(num_vertices, directed_edges, /*weighted=*/true);
}

Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges) {
  return Symmetrize(num_vertices, edges, /*weighted=*/false);
}

}  // namespace spinner
