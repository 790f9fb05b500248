// The work-stealing superstep schedule: every block is claimed exactly
// once, stealing actually happens on skewed inputs, and — the load-bearing
// guarantee — the schedule never shows in the results: assignments AND the
// float φ/ρ/score histories are bit-identical for every {shards, threads}
// shape, because all float state is per-block and all integer merges are
// order-free (spinner/steal_schedule.h).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "spinner/partitioner.h"
#include "spinner/sharded_program.h"
#include "spinner/steal_schedule.h"

namespace spinner {
namespace {

/// A deliberately skewed converted graph: Barabási-Albert preferential
/// attachment parks the high-degree hubs at the low vertex ids, so the
/// first shard carries far more edge work than the rest.
CsrGraph SkewedConverted(int64_t n, uint64_t seed = 5) {
  auto ba = BarabasiAlbert(n, /*m0=*/8, /*m=*/6, seed);
  SPINNER_CHECK(ba.ok());
  auto converted = BuildSymmetric(ba->num_vertices, ba->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

TEST(StealScheduleTest, EveryBlockClaimedExactlyOnce) {
  StealSchedule schedule;
  const std::vector<int64_t> blocks = {5, 0, 3, 1};
  schedule.ResetPhase(blocks, /*num_workers=*/2);
  std::set<std::pair<int, int64_t>> claimed;
  int shard = 0;
  int64_t block = 0;
  bool stolen = false;
  for (int w : {0, 1, 0, 0, 1, 1, 0, 1, 0}) {
    ASSERT_TRUE(schedule.Claim(w, &shard, &block, &stolen));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, static_cast<int>(blocks.size()));
    ASSERT_GE(block, 0);
    ASSERT_LT(block, blocks[shard]);
    ASSERT_TRUE(claimed.emplace(shard, block).second)
        << "block claimed twice: shard " << shard << " block " << block;
  }
  EXPECT_FALSE(schedule.Claim(0, &shard, &block, &stolen));
  EXPECT_FALSE(schedule.Claim(1, &shard, &block, &stolen));
  EXPECT_EQ(claimed.size(), 9u);
  EXPECT_EQ(schedule.stats().tasks, 9);
}

TEST(StealScheduleTest, SoloClaimantStealsEveryForeignShard) {
  StealSchedule schedule;
  const std::vector<int64_t> blocks = {2, 4, 1};
  schedule.ResetPhase(blocks, /*num_workers=*/2);
  // Worker 0 drains the whole phase alone: shards 0 and 2 are its own
  // (s % 2 == 0), shard 1's four blocks must all count as stolen.
  int shard = 0;
  int64_t block = 0;
  bool stolen = false;
  int64_t seen_stolen = 0;
  while (schedule.Claim(0, &shard, &block, &stolen)) {
    if (stolen) {
      EXPECT_EQ(shard, 1);
      ++seen_stolen;
    }
  }
  EXPECT_EQ(seen_stolen, 4);
  EXPECT_EQ(schedule.stats().tasks, 7);
  EXPECT_EQ(schedule.stats().stolen, 4);
}

TEST(StealScheduleTest, ConcurrentClaimsNeverDuplicateABlock) {
  StealSchedule schedule;
  const std::vector<int64_t> blocks = {64, 3, 128, 0, 17};
  const int workers = 4;
  schedule.ResetPhase(blocks, workers);
  std::vector<std::vector<std::pair<int, int64_t>>> claims(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      int shard = 0;
      int64_t block = 0;
      bool stolen = false;
      while (schedule.Claim(w, &shard, &block, &stolen)) {
        claims[w].emplace_back(shard, block);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<std::pair<int, int64_t>> unique;
  int64_t total = 0;
  for (const auto& per_worker : claims) {
    for (const auto& claim : per_worker) {
      EXPECT_TRUE(unique.insert(claim).second)
          << "duplicate claim of shard " << claim.first << " block "
          << claim.second;
      ++total;
    }
  }
  EXPECT_EQ(total, 64 + 3 + 128 + 17);
  EXPECT_EQ(schedule.stats().tasks, total);
}

TEST(StealingSupersteps, BitIdenticalAcrossShapesOnSkewedInput) {
  // The acceptance matrix of the stealing scheduler: a hub-skewed graph
  // partitioned under {shards 1,2,7} × {threads 1,4} must produce the
  // same assignment AND the same float φ/ρ/score history, bit for bit.
  const CsrGraph g = SkewedConverted(1900);
  SpinnerConfig config;
  config.num_partitions = 8;
  config.seed = 13;
  config.max_iterations = 15;
  config.use_halting = false;

  std::vector<PartitionId> ref_assignment;
  std::vector<IterationPoint> ref_history;
  for (const int shards : {1, 2, 7}) {
    for (const int threads : {1, 4}) {
      SpinnerConfig run_config = config;
      run_config.execution.num_shards = shards;
      run_config.execution.num_threads = threads;
      auto result = SpinnerPartitioner(run_config).Partition(g);
      ASSERT_TRUE(result.ok()) << "S=" << shards << " T=" << threads;
      if (ref_assignment.empty()) {
        ref_assignment = result->assignment;
        ref_history = result->history;
        ASSERT_FALSE(ref_history.empty());
        continue;
      }
      EXPECT_EQ(result->assignment, ref_assignment)
          << "S=" << shards << " T=" << threads;
      ASSERT_EQ(result->history.size(), ref_history.size());
      for (size_t i = 0; i < ref_history.size(); ++i) {
        // Exact float equality: the reduction order is fixed by block
        // index, never by the claim schedule.
        EXPECT_EQ(result->history[i].score, ref_history[i].score)
            << "S=" << shards << " T=" << threads << " it=" << i;
        EXPECT_EQ(result->history[i].phi, ref_history[i].phi);
        EXPECT_EQ(result->history[i].rho, ref_history[i].rho);
        EXPECT_EQ(result->history[i].migrations, ref_history[i].migrations);
        EXPECT_EQ(result->history[i].loads, ref_history[i].loads);
      }
    }
  }
}

TEST(StealingSupersteps, StealingOccursOnSkewedShards) {
  // 7 shards × 4 workers: ownership is s % 4, so any worker finishing its
  // own shards early must cross over. The hub shard (low ids) has the
  // most edge work per block, guaranteeing an imbalance to steal from.
  const CsrGraph g = SkewedConverted(7 * ShardedGraphStore::kBlockSize);
  SpinnerConfig config;
  config.num_partitions = 8;
  config.seed = 99;
  config.execution.num_shards = 7;
  config.execution.num_threads = 4;
  config.max_iterations = 10;
  config.use_halting = false;
  auto result = SpinnerPartitioner(config).Partition(g);
  ASSERT_TRUE(result.ok());
  // Initialize + 10 score phases + 9 migrate phases (the driver skips the
  // final migrate after the iteration cap).
  EXPECT_EQ(result->schedule.phases, 1 + 10 + 9);
  // Every phase deals out every block exactly once.
  const int64_t blocks =
      (g.NumVertices() + ShardedGraphStore::kBlockSize - 1) /
      ShardedGraphStore::kBlockSize;
  EXPECT_EQ(result->schedule.tasks, result->schedule.phases * blocks);
  EXPECT_GT(result->schedule.stolen_tasks, 0)
      << "4 workers over 7 skewed shards never crossed shard boundaries";
}

TEST(StealingSupersteps, ShardLoadsConsistentAfterStolenRun) {
  // After a run where blocks of one shard were processed by many workers,
  // every shard's load counters must still equal a from-scratch recount
  // of its labels — the mutex-merged deltas lost nothing.
  const CsrGraph g = SkewedConverted(1500, 17);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 3;
  config.max_iterations = 8;
  config.use_halting = false;
  auto store = ShardedGraphStore::Build(g, 6);
  ASSERT_TRUE(store.ok());
  ThreadPool pool(4);
  auto run = RunShardedSpinner(config, &*store, {}, &pool, nullptr);
  ASSERT_TRUE(run.ok());
  const std::vector<PartitionId>& labels = store->labels();
  for (int s = 0; s < store->num_shards(); ++s) {
    const ShardedGraphStore::Shard& shard = store->shard(s);
    std::vector<int64_t> want(static_cast<size_t>(config.num_partitions), 0);
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      want[labels[v]] += shard.WeightedDegreeOf(v);
    }
    EXPECT_EQ(shard.loads, want) << "shard " << s;
  }
}

}  // namespace
}  // namespace spinner
