// Elastic repartitioning (§III.E): changing k without restarting from
// scratch. Balance must recover at the new k and most vertices must stay.
#include <gtest/gtest.h>

#include <set>

#include "graph/conversion.h"
#include "graph/generators.h"
#include "spinner/partitioner.h"

namespace spinner {
namespace {

CsrGraph MakeGraph() {
  auto ws = WattsStrogatz(800, 4, 0.3, 19);
  SPINNER_CHECK(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(g.ok());
  return std::move(g).value();
}

SpinnerConfig BaseConfig(int k = 8) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.execution.num_shards = 4;
  return config;
}

TEST(SpinnerElasticTest, ExpandRebalancesOntoNewPartitions) {
  CsrGraph g = MakeGraph();
  SpinnerPartitioner partitioner(BaseConfig(8));
  auto initial = partitioner.Partition(g);
  ASSERT_TRUE(initial.ok());

  auto expanded = partitioner.Rescale(g, initial->assignment, 10);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->num_partitions, 10);

  std::set<PartitionId> used(expanded->assignment.begin(),
                             expanded->assignment.end());
  EXPECT_EQ(used.size(), 10u);  // new partitions actually populated
  // Balance at the new k (the whole point of Eq. 11's migration rate).
  EXPECT_LE(expanded->metrics.rho, 1.05 + 0.12);
  // Locality must survive the disruption (paper: "the locality of those
  // vertices that do not migrate is not completely destroyed").
  EXPECT_GT(expanded->metrics.phi, 0.25);
}

TEST(SpinnerElasticTest, ExpandIsMoreStableThanScratch) {
  CsrGraph g = MakeGraph();
  SpinnerPartitioner partitioner(BaseConfig(8));
  auto initial = partitioner.Partition(g);
  ASSERT_TRUE(initial.ok());

  auto expanded = partitioner.Rescale(g, initial->assignment, 9);
  ASSERT_TRUE(expanded.ok());
  SpinnerConfig scratch_config = BaseConfig(9);
  scratch_config.seed = 777;  // a fresh run, not a replay
  SpinnerPartitioner scratch_partitioner(scratch_config);
  auto scratch = scratch_partitioner.Partition(g);
  ASSERT_TRUE(scratch.ok());

  auto elastic_diff =
      PartitioningDifference(initial->assignment, expanded->assignment);
  auto scratch_diff =
      PartitioningDifference(initial->assignment, scratch->assignment);
  ASSERT_TRUE(elastic_diff.ok() && scratch_diff.ok());
  // Paper Fig. 8b: +1 partition moves <17% adaptively vs ~96% from scratch.
  EXPECT_LT(*elastic_diff, 0.55);
  EXPECT_GT(*scratch_diff, 0.70);
  EXPECT_LT(*elastic_diff, *scratch_diff);
}

TEST(SpinnerElasticTest, ShrinkEvacuatesRemovedPartitions) {
  CsrGraph g = MakeGraph();
  SpinnerPartitioner partitioner(BaseConfig(8));
  auto initial = partitioner.Partition(g);
  ASSERT_TRUE(initial.ok());

  auto shrunk = partitioner.Rescale(g, initial->assignment, 5);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(shrunk->num_partitions, 5);
  for (PartitionId l : shrunk->assignment) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 5);
  }
  EXPECT_LE(shrunk->metrics.rho, 1.05 + 0.12);
}

TEST(SpinnerElasticTest, SameKContinuesFromPrevious) {
  CsrGraph g = MakeGraph();
  SpinnerPartitioner partitioner(BaseConfig(8));
  auto initial = partitioner.Partition(g);
  ASSERT_TRUE(initial.ok());

  auto same = partitioner.Rescale(g, initial->assignment, 8);
  ASSERT_TRUE(same.ok());
  auto diff = PartitioningDifference(initial->assignment, same->assignment);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(*diff, 0.30);  // steady state: little churn
}

TEST(SpinnerElasticTest, RejectsIncompletePrevious) {
  CsrGraph g = MakeGraph();
  SpinnerPartitioner partitioner(BaseConfig(8));
  std::vector<PartitionId> partial(10, 0);  // graph has 800 vertices
  EXPECT_FALSE(partitioner.Rescale(g, partial, 10).ok());
}

}  // namespace
}  // namespace spinner
