#include "graph/conversion.h"

#include <algorithm>
#include <numeric>
#include <ranges>

#include "common/parallel.h"
#include "common/string_util.h"

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

/// One chunk's contiguous vertex range [begin, end).
struct VertexRange {
  VertexId begin = 0;
  VertexId end = 0;

  /// Whether v lies in the range; false for any v outside [0, n),
  /// negative ids included (they wrap above every range).
  bool Owns(VertexId v) const {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(begin) <
           static_cast<uint64_t>(end - begin);
  }
};

/// `chunks` contiguous ranges covering [0, n), cut where cost(x), a
/// non-decreasing estimate of the work below vertex x, crosses each
/// c/chunks share. A chunk copies its range into a local, which stays in
/// registers while the chunk stores to its arrays.
template <typename Cost>
std::vector<VertexRange> BalancedRanges(int64_t n, int chunks, Cost cost) {
  std::vector<VertexRange> ranges(chunks);
  VertexId begin = 0;
  for (int c = 0; c < chunks; ++c) {
    const VertexId end =
        c + 1 == chunks
            ? n
            : *std::ranges::partition_point(
                  std::views::iota(begin, n), [&](VertexId x) {
                    return cost(x) * chunks < cost(n) * (c + 1);
                  });
    ranges[c] = {begin, end};
    begin = end;
  }
  return ranges;
}

/// Fills the slots a merged bucket no longer needs. Its hi, 2^62 - 1, is
/// above every vertex id, so no range owns it.
constexpr uint64_t kHole = ~uint64_t{0};

}  // namespace

// Both conversions: O(n + m) passes plus a sort of each vertex's bucket,
// never a sort of the whole edge list. `weighted` selects Eq. 3 weights;
// otherwise every arc weighs 1. Each pass runs as `chunks` chunks over
// contiguous vertex ranges; chunk c alone writes the buckets, counters
// and rows of its range, and every chunk reads the whole input, so the
// arrays come out the same for every chunk count and every cut.
Result<CsrGraph> Symmetrize(int64_t num_vertices, const EdgeList& edges,
                            bool weighted, int chunks) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  const int64_t n = num_vertices;
  chunks = std::max(chunks, 1);

  // 1. Bucket every non-loop edge by its lower endpoint as the key
  //    hi<<2 | dir (bit 0: lo->hi present, bit 1: hi->lo present). A
  //    counting pass over even ranges, which also checks every endpoint,
  //    sizes the buckets.
  std::vector<int64_t> upper(n + 1, 0);
  std::vector<char> out_of_range(chunks, 0);
  const std::vector<VertexRange> even =
      BalancedRanges(n, chunks, [](VertexId x) { return x; });
  RunChunks(chunks, [&](int c) {
    const VertexRange range = even[c];
    const auto limit = static_cast<uint64_t>(n);
    bool bad = false;
    for (const Edge& e : edges) {
      // A negative id wraps above the limit too.
      bad |= static_cast<uint64_t>(e.src) >= limit ||
             static_cast<uint64_t>(e.dst) >= limit;
      // `&`, not `&&`: one branch, which the compiler keeps cheap.
      const VertexId lo = std::min(e.src, e.dst);
      if ((e.src != e.dst) & range.Owns(lo)) ++upper[lo];
    }
    out_of_range[c] = bad;
  });
  if (std::ranges::any_of(out_of_range, [](char bad) { return bad != 0; })) {
    return Status::InvalidArgument(StrFormat(
        "edge endpoint out of range [0,%lld)", static_cast<long long>(n)));
  }
  std::partial_sum(upper.begin(), upper.end(), upper.begin());

  // Filling the buckets back to front, over the edges in reverse, keeps
  // each bucket in input order, so rows of a sorted input stay sorted.
  // `upper[v]` ends as bucket v's start. The ranges of this pass and the
  // merge balance bucket keys: a hub's bucket would otherwise leave one
  // chunk with most of the work.
  const std::vector<VertexRange> by_keys = BalancedRanges(
      n, chunks, [&](VertexId x) { return (x > 0 ? upper[x - 1] : 0) + x; });
  std::vector<uint64_t, DefaultInitAllocator<uint64_t>> keys(upper[n]);
  RunChunks(chunks, [&](int c) {
    const VertexRange range = by_keys[c];
    // The edges go in batches, back to front. Each batch first lists the
    // edges this chunk owns (self-loops carry no cut information and go
    // in no bucket), so the prefetches look ahead over owned edges only.
    constexpr int64_t kBatch = 512;
    int64_t index[kBatch];
    VertexId low[kBatch];
    for (auto stop = static_cast<int64_t>(edges.size()); stop > 0;) {
      const int64_t start = std::max<int64_t>(stop - kBatch, 0);
      int64_t owned = 0;
      for (int64_t i = stop - 1; i >= start; --i) {
        index[owned] = i;
        low[owned] = std::min(edges[i].src, edges[i].dst);
        owned += (edges[i].src != edges[i].dst) & range.Owns(low[owned]);
      }
      stop = start;
      for (int64_t j = 0; j < owned; ++j) {
        if (j + 2 * kAhead < owned) {
          PrefetchForWrite(&upper[low[j + 2 * kAhead]]);
        }
        if (j + kAhead < owned) {
          PrefetchForWrite(&keys[upper[low[j + kAhead]] - 1]);
        }
        const Edge& e = edges[index[j]];
        const bool forward = e.src < e.dst;
        const VertexId hi = forward ? e.dst : e.src;
        keys[--upper[low[j]]] =
            (static_cast<uint64_t>(hi) << 2) | (forward ? 1u : 2u);
      }
    }
  });

  // 2. Sort each short bucket (unless it is already in order) and merge
  //    the keys of one unordered pair, OR-ing their direction bits. A
  //    merged bucket keeps its start and fills its freed tail with kHole,
  //    so bucket v's keys are those of [upper[v], upper[v + 1]) up to the
  //    first hole. `offsets[v + 1]` takes the merged size: v's upper
  //    neighbours.
  std::vector<int64_t> offsets(n + 1, 0);
  const auto by_hi = [](uint64_t a, uint64_t b) { return a >> 2 < b >> 2; };
  RunChunks(chunks, [&](int c) {
    const VertexRange range = by_keys[c];
    for (VertexId lo = range.begin; lo < range.end; ++lo) {
      const auto begin = keys.begin() + upper[lo];
      const auto end = keys.begin() + upper[lo + 1];
      if (!std::is_sorted(begin, end, by_hi)) std::sort(begin, end);
      auto out = begin;
      for (auto it = begin; it != end;) {
        uint64_t key = *it;
        for (++it; it != end && *it >> 2 == key >> 2; ++it) key |= *it;
        *out++ = key;
      }
      std::fill(out, end, kHole);
      offsets[lo + 1] = out - begin;
    }
  });

  // 3. Adding hi's lower neighbours, the merged keys naming hi (all in
  //    the buckets below hi), makes `offsets[hi + 1]` hi's degree. Each
  //    chunk then sums its rows' degrees. From here on the ranges balance
  //    the arcs of their rows: the keys of the buckets below plus, as an
  //    estimate, an even share of the lower neighbours.
  const double lower_share =
      n > 0 ? static_cast<double>(upper[n]) / static_cast<double>(n) : 0;
  const std::vector<VertexRange> by_arcs =
      BalancedRanges(n, chunks, [&](VertexId x) {
        return static_cast<double>(upper[x]) +
               lower_share * static_cast<double>(x);
      });
  std::vector<int64_t> row_base(chunks + 1, 0);
  RunChunks(chunks, [&](int c) {
    const VertexRange range = by_arcs[c];
    for (int64_t i = 0; i < upper[range.end]; ++i) {
      const auto hi = static_cast<VertexId>(keys[i] >> 2);
      if (range.Owns(hi)) ++offsets[hi + 1];
    }
    row_base[c + 1] =
        std::accumulate(offsets.begin() + range.begin + 1,
                        offsets.begin() + range.end + 1, int64_t{0});
  });
  std::partial_sum(row_base.begin(), row_base.end(), row_base.begin());

  // 4. Row v is [lower neighbours, ascending] then [upper neighbours,
  //    ascending]: sorted by construction. `offsets[v + 1]` serves as v's
  //    fill cursor, starting at the row's first slot. Walking lo upwards,
  //    the transpose writes lo into each upper neighbour's lower part in
  //    ascending order, and by the time lo's own turn comes its lower part
  //    is complete, so its cursor points at the upper part. Every cursor
  //    ends at its row's end, which is the finished offsets array. Chunk
  //    c walks the buckets below its range's end and writes only its own
  //    rows.
  CsrGraph::Targets targets(row_base[chunks]);
  CsrGraph::ArcWeights weights(row_base[chunks]);
  RunChunks(chunks, [&](int c) {
    const VertexRange range = by_arcs[c];
    std::exclusive_scan(offsets.begin() + range.begin + 1,
                        offsets.begin() + range.end + 1,
                        offsets.begin() + range.begin + 1, row_base[c]);
    const int64_t stop = upper[range.end];
    const auto owned = [&](int64_t i) {
      return i < stop && range.Owns(static_cast<VertexId>(keys[i] >> 2));
    };
    const auto cursor = [&](int64_t i) -> int64_t& {
      return offsets[(keys[i] >> 2) + 1];
    };
    for (VertexId lo = 0; lo < range.end; ++lo) {
      const bool own_row = lo >= range.begin;
      int64_t* const own = &offsets[own_row ? lo + 1 : 0];
      for (int64_t i = upper[lo]; i < upper[lo + 1] && keys[i] != kHole; ++i) {
        if (owned(i + 2 * kAhead)) PrefetchForWrite(&cursor(i + 2 * kAhead));
        if (owned(i + kAhead)) {
          PrefetchForWrite(&targets[cursor(i + kAhead)]);
          PrefetchForWrite(&weights[cursor(i + kAhead)]);
        }
        const auto hi = static_cast<VertexId>(keys[i] >> 2);
        // Eq. 3: both directions present => weight 2.
        const EdgeWeight w = (weighted && (keys[i] & 3) == 3) ? 2u : 1u;
        if (own_row) {
          targets[*own] = hi;
          weights[(*own)++] = w;
        }
        if (range.Owns(hi)) {
          int64_t& other = cursor(i);
          targets[other] = lo;
          weights[other++] = w;
        }
      }
    }
  });
  return CsrGraph::Finish(num_vertices, std::move(offsets),
                          std::move(targets), std::move(weights), chunks);
}

Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges) {
  return Symmetrize(num_vertices, directed_edges, /*weighted=*/true,
                    ChunkCount(static_cast<int64_t>(directed_edges.size())));
}

Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges) {
  return Symmetrize(num_vertices, edges, /*weighted=*/false,
                    ChunkCount(static_cast<int64_t>(edges.size())));
}

}  // namespace spinner
