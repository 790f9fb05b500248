// ShardedGraphStore: slicing correctness for any shard count, block-aligned
// boundaries, merged views, owning-shard-only updates — and the substrate's
// central guarantee: partitioning results are bit-identical for every
// shard/thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include <vector>

#include "common/threadpool.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "spinner/partitioner.h"
#include "spinner/sharded_program.h"

namespace spinner {
namespace {

CsrGraph SmallWorldConverted(int64_t n, uint64_t seed = 11) {
  auto ws = WattsStrogatz(n, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

void ExpectSlicesMatch(const ShardedGraphStore& store, const CsrGraph& g) {
  ASSERT_EQ(store.NumVertices(), g.NumVertices());
  EXPECT_EQ(store.NumArcs(), g.NumArcs());
  EXPECT_EQ(store.TotalArcWeight(), g.TotalArcWeight());
  int64_t covered = 0;
  VertexId expected_begin = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    const auto& shard = store.shard(s);
    // Ranges are contiguous, ordered, and block-aligned.
    EXPECT_EQ(shard.begin, expected_begin);
    if (shard.end < g.NumVertices()) {
      EXPECT_EQ(shard.end % ShardedGraphStore::kBlockSize, 0);
    }
    expected_begin = shard.end;
    covered += shard.NumOwnedVertices();
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      ASSERT_EQ(store.ShardOf(v), s) << "v=" << v;
      ASSERT_EQ(shard.WeightedDegreeOf(v), g.WeightedDegree(v));
      const auto got_n = shard.Neighbors(v);
      const auto want_n = g.Neighbors(v);
      ASSERT_EQ(got_n.size(), want_n.size());
      for (size_t j = 0; j < got_n.size(); ++j) {
        ASSERT_EQ(got_n[j], want_n[j]);
        ASSERT_EQ(shard.WeightsOf(v)[j], g.Weights(v)[j]);
      }
    }
  }
  EXPECT_EQ(expected_begin, g.NumVertices());
  EXPECT_EQ(covered, g.NumVertices());
}

TEST(ShardedGraphStoreTest, SingleShardOwnsEverything) {
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 1);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_shards(), 1);
  ExpectSlicesMatch(*store, g);
}

TEST(ShardedGraphStoreTest, SlicesMatchGlobalGraphForVariousShardCounts) {
  const CsrGraph g = SmallWorldConverted(1100);
  for (const int shards : {2, 3, 7}) {
    auto store = ShardedGraphStore::Build(g, shards);
    ASSERT_TRUE(store.ok()) << "S=" << shards;
    EXPECT_EQ(store->num_shards(), shards);
    ExpectSlicesMatch(*store, g);
  }
}

TEST(ShardedGraphStoreTest, MoreShardsThanBlocksLeavesEmptyShards) {
  // 300 vertices = 2 blocks; 7 shards means most own nothing, which must
  // be harmless (and is what keeps results independent of S).
  const CsrGraph g = SmallWorldConverted(300);
  auto store = ShardedGraphStore::Build(g, 7);
  ASSERT_TRUE(store.ok());
  ExpectSlicesMatch(*store, g);
  int nonempty = 0;
  for (int s = 0; s < 7; ++s) {
    if (store->shard(s).NumOwnedVertices() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, store->NumBlocks());
}

TEST(ShardedGraphStoreTest, RejectsInvalidShardCount) {
  const CsrGraph g = SmallWorldConverted(300);
  EXPECT_FALSE(ShardedGraphStore::Build(g, 0).ok());
  EXPECT_FALSE(ShardedGraphStore::Build(g, -2).ok());
}

TEST(ShardedGraphStoreTest, MergedLoadsReducesAcrossShards) {
  const CsrGraph g = SmallWorldConverted(1100);
  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  store->ResetLoads(4);
  store->mutable_shard(0).loads[1] = 5;
  store->mutable_shard(1).loads[1] = 7;
  store->mutable_shard(2).loads[3] = 2;
  const std::vector<int64_t> merged = store->MergedLoads();
  EXPECT_EQ(merged, (std::vector<int64_t>{0, 12, 0, 2}));
}

TEST(ShardedGraphStoreTest, UpdateRebuildsOnlyOwningShards) {
  auto ws = WattsStrogatz(1100, 3, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto before = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(before.ok());
  auto store = ShardedGraphStore::Build(*before, 3);
  ASSERT_TRUE(store.ok());
  for (int s = 0; s < 3; ++s) EXPECT_EQ(store->rebuild_count(s), 1);

  // Add one edge between two vertices of the first shard: only that
  // shard's CSR slice is stale.
  EdgeList new_edges = ws->edges;
  new_edges.push_back({1, 5});
  auto after = BuildSymmetric(ws->num_vertices, new_edges);
  ASSERT_TRUE(after.ok());
  const std::vector<VertexId> dirty = {1, 5};
  ASSERT_TRUE(store->Update(*after, dirty).ok());
  EXPECT_EQ(store->rebuild_count(0), 2);
  EXPECT_EQ(store->rebuild_count(1), 1);
  EXPECT_EQ(store->rebuild_count(2), 1);
  ExpectSlicesMatch(*store, *after);
}

TEST(ShardedGraphStoreTest, UpdateRejectsGrownGraphAndBadVertices) {
  const CsrGraph g = SmallWorldConverted(520);
  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  const CsrGraph grown = SmallWorldConverted(600);
  EXPECT_FALSE(store->Update(grown, {}).ok());
  EXPECT_FALSE(store->Update(g, std::vector<VertexId>{-1}).ok());
  EXPECT_FALSE(store->Update(g, std::vector<VertexId>{520}).ok());
}

// --- The substrate guarantee: results don't depend on S or threads -------

TEST(ShardedSpinnerTest, AssignmentIsBitIdenticalAcrossShardAndThreadCounts) {
  const CsrGraph g = SmallWorldConverted(1100, 21);
  SpinnerConfig config;
  config.num_partitions = 6;
  config.seed = 7;

  std::vector<PartitionId> reference;
  int reference_iterations = 0;
  const struct {
    int shards;
    int threads;
  } shapes[] = {{1, 1}, {2, 1}, {7, 4}, {3, 8}, {0, 0}};
  for (const auto& shape : shapes) {
    SpinnerConfig run_config = config;
    run_config.execution.num_shards = shape.shards;
    run_config.execution.num_threads = shape.threads;
    SpinnerPartitioner partitioner(run_config);
    auto result = partitioner.Partition(g);
    ASSERT_TRUE(result.ok()) << "S=" << shape.shards;
    if (reference.empty()) {
      reference = result->assignment;
      reference_iterations = result->iterations;
    } else {
      EXPECT_EQ(result->assignment, reference)
          << "S=" << shape.shards << " threads=" << shape.threads;
      EXPECT_EQ(result->iterations, reference_iterations);
    }
  }
}

TEST(ShardedSpinnerTest, HistoryAndScoresAreShardCountInvariant) {
  // Even the floating-point convergence curve must match bit-for-bit:
  // the per-block score reduction never depends on S.
  const CsrGraph g = SmallWorldConverted(900, 3);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 12;
  config.use_halting = false;

  config.execution.num_shards = 1;
  auto one = SpinnerPartitioner(config).Partition(g);
  config.execution.num_shards = 5;
  config.execution.num_threads = 4;
  auto five = SpinnerPartitioner(config).Partition(g);
  ASSERT_TRUE(one.ok() && five.ok());
  ASSERT_EQ(one->history.size(), five->history.size());
  for (size_t i = 0; i < one->history.size(); ++i) {
    EXPECT_EQ(one->history[i].score, five->history[i].score) << i;
    EXPECT_EQ(one->history[i].phi, five->history[i].phi) << i;
    EXPECT_EQ(one->history[i].rho, five->history[i].rho) << i;
    EXPECT_EQ(one->history[i].loads, five->history[i].loads) << i;
  }
}

TEST(ShardedSpinnerTest, StoreLoadsStayConsistentWithAssignment) {
  const CsrGraph g = SmallWorldConverted(700, 9);
  SpinnerConfig config;
  config.num_partitions = 5;
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  ThreadPool pool(2);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = RunShardedSpinner(config, &*store, no_labels, &pool,
                               /*observer=*/nullptr);
  ASSERT_TRUE(run.ok());

  // The merged per-shard counters must equal loads recomputed from the
  // final labels.
  std::vector<int64_t> expected(5, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    expected[store->labels()[v]] += g.WeightedDegree(v);
  }
  EXPECT_EQ(store->MergedLoads(), expected);
}

TEST(ShardedSpinnerTest, ResolveHelpersHonorExplicitConfig) {
  SpinnerConfig config;
  config.execution.num_shards = 9;
  config.execution.num_threads = 3;
  EXPECT_EQ(ResolveNumShards(config, 100000), 9);
  EXPECT_EQ(ResolveNumThreads(config, 9), 3);

  config.execution.num_shards = 0;
  config.execution.num_threads = 0;
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Auto: one shard per hardware thread, capped by the block count.
  const int64_t blocks = (100000 + ShardedGraphStore::kBlockSize - 1) /
                         ShardedGraphStore::kBlockSize;
  EXPECT_EQ(ResolveNumShards(config, 100000),
            static_cast<int>(std::min<int64_t>(hardware, blocks)));
  // Block stealing decouples threads from shards: the default is the
  // hardware concurrency even when it exceeds the shard count.
  EXPECT_GE(ResolveNumThreads(config, 5), 1);
  EXPECT_EQ(ResolveNumThreads(config, 5), hardware);

  // Tiny graphs never get more shards than blocks.
  EXPECT_EQ(ResolveNumShards(config, 10), 1);
}

}  // namespace
}  // namespace spinner
