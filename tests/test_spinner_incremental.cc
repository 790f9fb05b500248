// Incremental repartitioning (§III.D): adapting must preserve most of the
// previous assignment (stability), keep quality, and label new vertices.
#include <gtest/gtest.h>

#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "spinner/partitioner.h"

namespace spinner {
namespace {

struct Workload {
  GeneratedGraph base;
  CsrGraph converted;
};

Workload MakeWorkload() {
  auto ws = WattsStrogatz(800, 4, 0.3, 7);
  SPINNER_CHECK(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(g.ok());
  return {std::move(ws).value(), std::move(g).value()};
}

SpinnerConfig BaseConfig() {
  SpinnerConfig config;
  config.num_partitions = 8;
  config.execution.num_shards = 4;
  return config;
}

TEST(SpinnerIncrementalTest, AdaptationIsStableReparitioningIsNot) {
  Workload w = MakeWorkload();
  SpinnerPartitioner partitioner(BaseConfig());
  auto initial = partitioner.Partition(w.converted);
  ASSERT_TRUE(initial.ok());

  // Add 2% new edges.
  auto delta = RandomEdgeAdditions(
      w.base.num_vertices, w.base.edges,
      static_cast<int64_t>(w.base.edges.size()) / 50, 13);
  auto new_edges = ApplyDelta(w.base.num_vertices, w.base.edges, delta);
  ASSERT_TRUE(new_edges.ok());
  auto new_graph = BuildSymmetric(w.base.num_vertices, *new_edges);
  ASSERT_TRUE(new_graph.ok());

  auto adapted = partitioner.Repartition(*new_graph, initial->assignment);
  ASSERT_TRUE(adapted.ok());
  // A re-partitioning from scratch draws a fresh random initialization (in
  // production the seed would differ run to run).
  SpinnerConfig scratch_config = BaseConfig();
  scratch_config.seed = 777;
  SpinnerPartitioner scratch_partitioner(scratch_config);
  auto scratch = scratch_partitioner.Partition(*new_graph);
  ASSERT_TRUE(scratch.ok());

  auto adapted_diff =
      PartitioningDifference(initial->assignment, adapted->assignment);
  auto scratch_diff =
      PartitioningDifference(initial->assignment, scratch->assignment);
  ASSERT_TRUE(adapted_diff.ok() && scratch_diff.ok());

  // Paper Fig. 7b: adaptive moves ~8-11% of vertices, scratch ~95-98%.
  EXPECT_LT(*adapted_diff, 0.45);
  EXPECT_GT(*scratch_diff, 0.70);
  EXPECT_LT(*adapted_diff, *scratch_diff);

  // Quality after adaptation stays comparable to scratch.
  EXPECT_GT(adapted->metrics.phi, scratch->metrics.phi - 0.15);
  EXPECT_LE(adapted->metrics.rho, 1.05 + 0.12);
}

TEST(SpinnerIncrementalTest, AdaptationConvergesFasterThanScratch) {
  Workload w = MakeWorkload();
  SpinnerPartitioner partitioner(BaseConfig());
  auto initial = partitioner.Partition(w.converted);
  ASSERT_TRUE(initial.ok());

  // Tiny change: 0.5% new edges.
  auto delta = RandomEdgeAdditions(
      w.base.num_vertices, w.base.edges,
      static_cast<int64_t>(w.base.edges.size()) / 200, 17);
  auto new_edges = ApplyDelta(w.base.num_vertices, w.base.edges, delta);
  ASSERT_TRUE(new_edges.ok());
  auto new_graph = BuildSymmetric(w.base.num_vertices, *new_edges);
  ASSERT_TRUE(new_graph.ok());

  auto adapted = partitioner.Repartition(*new_graph, initial->assignment);
  auto scratch = partitioner.Partition(*new_graph);
  ASSERT_TRUE(adapted.ok() && scratch.ok());
  // Paper Fig. 7a: adaptation saves most of the work. Messages are the
  // robust proxy (wall time is noisy in CI).
  EXPECT_LT(adapted->run_stats.TotalMessages(),
            scratch->run_stats.TotalMessages());
  EXPECT_LE(adapted->iterations, scratch->iterations);
}

TEST(SpinnerIncrementalTest, NewVerticesAreLabeled) {
  Workload w = MakeWorkload();
  SpinnerPartitioner partitioner(BaseConfig());
  auto initial = partitioner.Partition(w.converted);
  ASSERT_TRUE(initial.ok());

  // Grow the graph by 40 vertices chained to existing ones.
  GraphDelta delta;
  delta.num_new_vertices = 40;
  for (int64_t i = 0; i < 40; ++i) {
    delta.added_edges.push_back({800 + i, i * 17 % 800});
  }
  auto new_edges = ApplyDelta(w.base.num_vertices, w.base.edges, delta);
  ASSERT_TRUE(new_edges.ok());
  auto new_graph = BuildSymmetric(840, *new_edges);
  ASSERT_TRUE(new_graph.ok());

  auto adapted = partitioner.Repartition(*new_graph, initial->assignment);
  ASSERT_TRUE(adapted.ok());
  ASSERT_EQ(adapted->assignment.size(), 840u);
  for (PartitionId l : adapted->assignment) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 8);
  }
}

TEST(SpinnerIncrementalTest, UnchangedGraphBarelyMoves) {
  Workload w = MakeWorkload();
  SpinnerPartitioner partitioner(BaseConfig());
  auto initial = partitioner.Partition(w.converted);
  ASSERT_TRUE(initial.ok());

  auto adapted = partitioner.Repartition(w.converted, initial->assignment);
  ASSERT_TRUE(adapted.ok());
  auto diff =
      PartitioningDifference(initial->assignment, adapted->assignment);
  ASSERT_TRUE(diff.ok());
  // Restarting at a steady state: the halting criterion should fire almost
  // immediately and only slight churn is expected.
  EXPECT_LT(*diff, 0.30);
  EXPECT_LE(adapted->iterations, initial->iterations);
}

TEST(SpinnerIncrementalTest, RejectsInvalidPrevious) {
  Workload w = MakeWorkload();
  SpinnerPartitioner partitioner(BaseConfig());
  std::vector<PartitionId> bad(w.converted.NumVertices(), 0);
  bad[0] = 99;  // outside [0, 8)
  EXPECT_FALSE(partitioner.Repartition(w.converted, bad).ok());
}

}  // namespace
}  // namespace spinner
