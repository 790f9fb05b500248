// Differential tests of the worker index layout against the test-only
// reference in worker_layout_reference.h: on random shard assignments,
// dist::RemapToWorkerLayout must produce the same subscription and rewrite
// every target to the same slot as the original sort-and-unique layout
// plus binary-search remap, and must reject every malformed assignment
// with the same status code (leaving the shards untouched).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "dist/worker.h"
#include "graph/sharded_store.h"
#include "worker_layout_reference.h"

namespace spinner {
namespace {

using Shard = ShardedGraphStore::Shard;
using Target = ShardedGraphStore::Target;
constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;

/// Which targets a random assignment's arcs point at.
struct Shape {
  int64_t n = 0;
  int64_t owned_begin = 0;  // block-aligned
  int num_shards = 0;
  int64_t max_shard_vertices = 0;
  int64_t max_degree = 0;
  double owned_share = 0.5;  // fraction of arcs pointing into the range
  /// Boundary targets are drawn from this many distinct vertices (0 =
  /// from all of [0, n)), so duplicates are common.
  int64_t boundary_pool = 0;
};

/// Contiguous shards from shape.owned_begin, each with random (possibly
/// zero) size and degrees, clamped to [0, n).
std::vector<Shard> RandomShards(const Shape& shape, Rng& rng) {
  std::vector<VertexId> pool;
  for (int64_t i = 0; i < shape.boundary_pool; ++i) {
    pool.push_back(static_cast<VertexId>(rng.Uniform(shape.n)));
  }
  std::vector<Shard> shards;
  VertexId begin = shape.owned_begin;
  for (int s = 0; s < shape.num_shards; ++s) {
    Shard shard;
    shard.begin = begin;
    shard.end = std::min<VertexId>(
        shape.n, begin + static_cast<VertexId>(
                             rng.Uniform(shape.max_shard_vertices + 1)));
    begin = shard.end;
    shard.offsets.push_back(0);
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      const int64_t degree =
          static_cast<int64_t>(rng.Uniform(shape.max_degree + 1));
      for (int64_t a = 0; a < degree; ++a) {
        shard.targets.push_back(static_cast<Target>(rng.Uniform(shape.n)));
      }
      shard.offsets.push_back(static_cast<int64_t>(shard.targets.size()));
    }
    shard.weights.assign(shard.targets.size(), 1);
    shards.push_back(std::move(shard));
  }
  // Re-aim each arc: into the owned range with probability owned_share
  // (when it is non-empty), else at a boundary pool vertex.
  const VertexId owned_end = shards.empty() ? shape.owned_begin : begin;
  for (Shard& shard : shards) {
    for (Target& t : shard.targets) {
      if (owned_end > shape.owned_begin && rng.Bernoulli(shape.owned_share)) {
        t = static_cast<Target>(
            shape.owned_begin +
            static_cast<VertexId>(rng.Uniform(owned_end - shape.owned_begin)));
      } else if (!pool.empty()) {
        t = static_cast<Target>(pool[rng.Uniform(pool.size())]);
      }
    }
  }
  return shards;
}

/// Runs the reference (layout, then remap of every shard) on one copy of
/// `shards` and the library function on another, and asserts that both
/// succeed or fail alike; on success the layouts and every rewritten
/// target must be identical, on failure the library leaves its copy as
/// it was.
void ExpectSameAsReference(const std::vector<Shard>& shards, int64_t n) {
  std::vector<Shard> reference = shards;
  auto want = worker_layout_reference::BuildWorkerLayout(reference, n);
  Status want_status = want.status();
  if (want.ok()) {
    for (Shard& shard : reference) {
      want_status = worker_layout_reference::RemapTargetsToSlots(*want, &shard);
      if (!want_status.ok()) break;
    }
  }
  std::vector<Shard> remapped = shards;
  auto got = dist::RemapToWorkerLayout(remapped, n);
  ASSERT_EQ(got.status().code(), want_status.code()) << got.status();
  if (!got.ok()) {
    for (size_t s = 0; s < shards.size(); ++s) {
      EXPECT_EQ(remapped[s].targets, shards[s].targets) << "shard " << s;
    }
    return;
  }
  EXPECT_EQ(got->owned_begin, want->owned_begin);
  EXPECT_EQ(got->owned_end, want->owned_end);
  ASSERT_EQ(got->subscription, want->subscription);
  for (size_t s = 0; s < shards.size(); ++s) {
    ASSERT_EQ(remapped[s].targets, reference[s].targets) << "shard " << s;
  }
}

/// ExpectSameAsReference for a well-formed assignment, which must be
/// accepted.
void ExpectAcceptedLikeReference(std::vector<Shard> shards, int64_t n) {
  ExpectSameAsReference(shards, n);
  EXPECT_TRUE(dist::RemapToWorkerLayout(shards, n).ok());
}

TEST(WorkerLayoutDifferentialTest, RandomAssignmentsMatchTheReference) {
  Rng rng(20240521);
  for (int trial = 0; trial < 300; ++trial) {
    Shape shape;
    // Small graphs, then ones needing two and three 11-bit radix digits.
    const int64_t scales[] = {1, 700, 5'000, int64_t{1} << 21,
                              ShardedGraphStore::kMaxVertices};
    shape.n = std::max<int64_t>(
        1, static_cast<int64_t>(rng.Uniform(scales[trial % 5] + 1)));
    const int64_t blocks = (shape.n - 1) / kBlock + 1;
    shape.owned_begin = static_cast<int64_t>(rng.Uniform(blocks)) * kBlock;
    shape.num_shards = 1 + static_cast<int>(rng.Uniform(5));
    shape.max_shard_vertices = static_cast<int64_t>(rng.Uniform(400));
    shape.max_degree = static_cast<int64_t>(rng.Uniform(12));
    shape.owned_share = rng.NextDouble();
    shape.boundary_pool = rng.Bernoulli(0.5)
                              ? 0
                              : 1 + static_cast<int64_t>(rng.Uniform(300));
    const std::vector<Shard> shards = RandomShards(shape, rng);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n="
                                      << shape.n << " begin="
                                      << shape.owned_begin);
    ExpectAcceptedLikeReference(shards, shape.n);
  }
}

TEST(WorkerLayoutDifferentialTest, EdgeCasesMatchTheReference) {
  Rng rng(7);
  Shape shape;
  shape.n = 3000;
  shape.owned_begin = 2 * kBlock;
  shape.num_shards = 3;
  shape.max_shard_vertices = 300;
  shape.max_degree = 6;
  shape.boundary_pool = 40;

  // No boundary arcs: every target owned.
  shape.owned_share = 1.0;
  ExpectAcceptedLikeReference(RandomShards(shape, rng), shape.n);

  // Every arc a boundary arc.
  shape.owned_share = 0.0;
  ExpectAcceptedLikeReference(RandomShards(shape, rng), shape.n);

  // Targets n - 1 and 0, above and below the owned range. (Neither
  // function reads offsets, so the extra arcs need no row.)
  std::vector<Shard> last = RandomShards(shape, rng);
  last.front().targets.push_back(static_cast<Target>(shape.n - 1));
  last.back().targets.push_back(0);
  ExpectAcceptedLikeReference(last, shape.n);

  // A shardless worker.
  ExpectAcceptedLikeReference({}, shape.n);

  // Empty shards first, in the middle and last, and a worker owning only
  // an empty shard.
  std::vector<Shard> gaps = RandomShards(shape, rng);
  Shard empty;
  empty.offsets = {0};
  empty.begin = empty.end = gaps[1].begin;
  gaps.insert(gaps.begin() + 1, empty);
  empty.begin = empty.end = gaps.back().end;
  gaps.push_back(empty);
  empty.begin = empty.end = gaps.front().begin;
  gaps.insert(gaps.begin(), empty);
  ExpectAcceptedLikeReference(gaps, shape.n);
  ExpectAcceptedLikeReference({empty}, shape.n);
}

TEST(WorkerLayoutDifferentialTest, MalformedAssignmentsFailLikeTheReference) {
  Rng rng(99);
  Shape shape;
  shape.n = 4000;
  shape.owned_begin = 3 * kBlock;
  shape.num_shards = 3;
  shape.max_shard_vertices = 300;
  shape.max_degree = 5;
  shape.owned_share = 0.5;
  // Each case must be rejected, with the reference's status code.
  const auto expect_rejected = [](std::vector<Shard> shards, int64_t n) {
    ExpectSameAsReference(shards, n);
    EXPECT_FALSE(dist::RemapToWorkerLayout(shards, n).ok());
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Shard> shards = RandomShards(shape, rng);
    while (shards[1].targets.empty()) shards = RandomShards(shape, rng);

    // A gap between two shards.
    std::vector<Shard> gap = shards;
    gap[2].begin += 1;
    expect_rejected(gap, shape.n);

    // A shard ending before it begins.
    std::vector<Shard> reversed = shards;
    reversed[1].end = reversed[1].begin - 1;
    expect_rejected(reversed, shape.n);

    // A begin that is not block-aligned.
    std::vector<Shard> misaligned = shards;
    misaligned[0].begin += 1 + static_cast<int64_t>(rng.Uniform(kBlock - 1));
    expect_rejected(misaligned, shape.n);

    // A range ending past the graph.
    expect_rejected(shards, shards.back().end - 1);

    // A target at or past n, in any shard.
    std::vector<Shard> far = shards;
    Shard& shard = far[1];
    shard.targets[rng.Uniform(shard.targets.size())] =
        static_cast<Target>(shape.n + rng.Uniform(3));
    expect_rejected(far, shape.n);
  }
}

}  // namespace
}  // namespace spinner
