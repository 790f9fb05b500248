// Cost model and cluster simulator: the pricing rules, and the headline
// §V.F effect — Spinner placement beats hash placement because it converts
// remote messages into local ones and balances worker load.
#include <gtest/gtest.h>

#include "apps/pagerank.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "simulator/cluster_simulator.h"
#include "spinner/partitioner.h"

namespace spinner::sim {
namespace {

pregel::RunStats TwoStepStats(int workers) {
  // Hand-built stats: superstep 0 computes and sends, superstep 1 ingests.
  pregel::RunStats stats;
  pregel::SuperstepStats s0;
  s0.superstep = 0;
  s0.worker_vertices_computed = {10, 20};
  s0.worker_edges_scanned = {100, 200};
  s0.worker_messages_in = {50, 70};          // ingested at barrier 0
  s0.worker_remote_messages_in = {30, 0};
  s0.worker_messages_out = {60, 60};
  s0.messages_sent = 120;
  s0.messages_remote = 30;
  s0.messages_local = 90;
  stats.per_superstep.push_back(s0);

  pregel::SuperstepStats s1;
  s1.superstep = 1;
  s1.worker_vertices_computed = {10, 20};
  s1.worker_edges_scanned = {100, 200};
  s1.worker_messages_in = {0, 0};
  s1.worker_remote_messages_in = {0, 0};
  s1.worker_messages_out = {0, 0};
  stats.per_superstep.push_back(s1);
  stats.supersteps = 2;
  (void)workers;
  return stats;
}

TEST(CostModelTest, ChargesComputeAndMessagesAtProcessingTime) {
  CostModel model;
  model.per_vertex_us = 1.0;
  model.per_edge_us = 0.1;
  model.per_local_message_us = 0.5;
  model.per_remote_message_us = 5.0;
  model.barrier_us = 100.0;

  auto result = Simulate(TwoStepStats(2), model);
  ASSERT_EQ(result.supersteps.size(), 2u);

  // Superstep 0: compute only (no prior messages).
  const auto& s0 = result.supersteps[0];
  EXPECT_NEAR(s0.worker_seconds[0], (10 * 1.0 + 100 * 0.1) * 1e-6, 1e-12);
  EXPECT_NEAR(s0.worker_seconds[1], (20 * 1.0 + 200 * 0.1) * 1e-6, 1e-12);
  // Superstep duration = slowest worker + barrier.
  EXPECT_NEAR(s0.superstep_seconds, 40e-6 + 100e-6, 1e-12);

  // Superstep 1: compute + messages ingested at the previous barrier.
  const auto& s1 = result.supersteps[1];
  // Worker 0: 20 compute + (50-30) local * 0.5 + 30 remote * 5 = 180 us.
  EXPECT_NEAR(s1.worker_seconds[0], (20.0 + 10.0 + 150.0) * 1e-6, 1e-12);
  // Worker 1: 40 compute + 70 local * 0.5 = 75 us.
  EXPECT_NEAR(s1.worker_seconds[1], (40.0 + 35.0) * 1e-6, 1e-12);

  EXPECT_EQ(result.total_messages, 120);
  EXPECT_EQ(result.remote_messages, 30);
  EXPECT_NEAR(result.total_seconds,
              s0.superstep_seconds + s1.superstep_seconds, 1e-12);
}

TEST(CostModelTest, MeanMinTrackWorkers) {
  CostModel model;
  model.per_vertex_us = 1.0;
  model.per_edge_us = 0.0;
  model.barrier_us = 0.0;
  auto result = Simulate(TwoStepStats(2), model);
  const auto& s0 = result.supersteps[0];
  EXPECT_NEAR(s0.mean_worker_seconds, 15e-6, 1e-12);
  EXPECT_NEAR(s0.min_worker_seconds, 10e-6, 1e-12);
  EXPECT_EQ(result.mean_stats.count(), 2);
  EXPECT_EQ(result.max_stats.count(), 2);
}

TEST(CostModelTest, EmptyRunIsZero) {
  auto result = Simulate(pregel::RunStats{}, CostModel{});
  EXPECT_DOUBLE_EQ(result.total_seconds, 0.0);
  EXPECT_TRUE(result.supersteps.empty());
}

// --- End-to-end: placement quality shows up in simulated time ------------

TEST(ClusterSimulatorTest, SpinnerPlacementBeatsHashForPageRank) {
  auto ws = WattsStrogatz(1200, 5, 0.2, 33);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());
  const int workers = 8;

  SpinnerConfig config;
  config.num_partitions = workers;
  config.execution.num_shards = 4;
  SpinnerPartitioner partitioner(config);
  auto partition = partitioner.Partition(*g);
  ASSERT_TRUE(partition.ok());

  auto run_with = [&](pregel::Placement placement) {
    apps::PageRankProgram program(15);
    return RunOnCluster<apps::PageRankVertex, double>(
        *g, workers, std::move(placement), program,
        [](VertexId) { return apps::PageRankVertex{}; });
  };

  auto hash_run = run_with(pregel::HashPlacement(workers));
  auto spinner_run =
      run_with(pregel::LabelPlacement(partition->assignment, workers));

  // Same computation, fewer remote messages, faster simulated run.
  EXPECT_EQ(hash_run.simulation.total_messages,
            spinner_run.simulation.total_messages);
  EXPECT_LT(spinner_run.simulation.remote_messages,
            hash_run.simulation.remote_messages / 2);
  EXPECT_LT(spinner_run.simulation.total_seconds,
            hash_run.simulation.total_seconds);
}

TEST(ClusterSimulatorTest, ResultsUnaffectedByPlacement) {
  // Placement changes performance, never results: BSP semantics.
  auto ws = WattsStrogatz(200, 3, 0.3, 2);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());

  auto ranks_with = [&](pregel::Placement placement) {
    pregel::EngineConfig config;
    config.num_workers = 5;
    apps::PageRankEngine engine(
        *g, config, std::move(placement),
        [](VertexId) { return apps::PageRankVertex{}; });
    apps::PageRankProgram program(10);
    engine.Run(program);
    std::vector<double> ranks;
    engine.ForEachVertex([&](VertexId, const apps::PageRankVertex& v) {
      ranks.push_back(v.rank);
    });
    return ranks;
  };

  const auto a = ranks_with(pregel::HashPlacement(5));
  const auto b = ranks_with(pregel::BlockPlacement(200, 5));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Combiner summation order differs with placement; values agree up to
    // floating-point associativity.
    EXPECT_NEAR(a[i], b[i], 1e-9) << "vertex " << i;
  }
}

}  // namespace
}  // namespace spinner::sim
