// PartitionerRegistry: uniform construction of every implementation by
// name, capability probing, and equivalence of the "spinner" adapter with
// the direct SpinnerPartitioner entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/partitioner_registry.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "spinner/metrics.h"
#include "spinner/partitioner.h"
#include "spinner/spinner_graph_partitioner.h"

namespace spinner {
namespace {

CsrGraph SmallGraph() {
  auto ws = WattsStrogatz(300, 4, 0.3, 11);
  SPINNER_CHECK(ws.ok());
  auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

TEST(PartitionerRegistryTest, AllBuiltinsAreRegistered) {
  const std::vector<std::string> names = PartitionerRegistry::Names();
  const std::set<std::string> name_set(names.begin(), names.end());
  for (const char* expected : {"hash", "random", "ldg", "fennel",
                               "restreaming", "multilevel", "spinner"}) {
    EXPECT_TRUE(name_set.count(expected)) << "missing " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PartitionerRegistryTest, EveryRegisteredNamePartitionsASmallGraph) {
  const CsrGraph g = SmallGraph();
  const int k = 4;
  for (const std::string& name : PartitionerRegistry::Names()) {
    auto partitioner = PartitionerRegistry::Create(name);
    ASSERT_TRUE(partitioner.ok()) << name << ": " << partitioner.status();
    auto labels = (*partitioner)->Partition(g, k);
    ASSERT_TRUE(labels.ok()) << name << ": " << labels.status();
    ASSERT_EQ(static_cast<int64_t>(labels->size()), g.NumVertices())
        << name;
    for (PartitionId l : *labels) {
      ASSERT_GE(l, 0) << name;
      ASSERT_LT(l, k) << name;
    }
  }
}

TEST(PartitionerRegistryTest, UnknownNameIsNotFoundAndListsKnownNames) {
  auto p = PartitionerRegistry::Create("metis");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
  EXPECT_NE(p.status().message().find("spinner"), std::string::npos)
      << p.status();
}

TEST(PartitionerRegistryTest, DuplicateRegistrationIsRejected) {
  PartitionerRegistry::Names();  // force built-in registration first
  EXPECT_FALSE(PartitionerRegistry::Register(
      "hash", [](const PartitionerOptions&)
                  -> Result<std::unique_ptr<GraphPartitioner>> {
        return Status::Internal("never called");
      }));
}

TEST(PartitionerRegistryTest, CapabilitiesMatchImplementations) {
  auto spinner_p = PartitionerRegistry::Create("spinner");
  ASSERT_TRUE(spinner_p.ok());
  EXPECT_TRUE((*spinner_p)->SupportsRepartition());
  EXPECT_TRUE((*spinner_p)->SupportsRescale());

  auto restreaming = PartitionerRegistry::Create("restreaming");
  ASSERT_TRUE(restreaming.ok());
  EXPECT_TRUE((*restreaming)->SupportsRepartition());
  EXPECT_FALSE((*restreaming)->SupportsRescale());

  auto hash = PartitionerRegistry::Create("hash");
  ASSERT_TRUE(hash.ok());
  EXPECT_FALSE((*hash)->SupportsRepartition());
  EXPECT_FALSE((*hash)->SupportsRescale());
  const CsrGraph g = SmallGraph();
  std::vector<PartitionId> previous(g.NumVertices(), 0);
  auto repartitioned = (*hash)->Repartition(g, 4, previous);
  ASSERT_FALSE(repartitioned.ok());
  EXPECT_EQ(repartitioned.status().code(), StatusCode::kUnimplemented);
  auto rescaled = (*hash)->Rescale(g, previous, 4, 6);
  ASSERT_FALSE(rescaled.ok());
  EXPECT_EQ(rescaled.status().code(), StatusCode::kUnimplemented);
}

TEST(PartitionerRegistryTest, SpinnerAdapterMatchesDirectEntryPoints) {
  const CsrGraph g = SmallGraph();
  const int k = 4;
  PartitionerOptions options;
  options.spinner.execution.num_shards = 2;
  auto adapter = PartitionerRegistry::Create("spinner", options);
  ASSERT_TRUE(adapter.ok());

  SpinnerConfig config = options.spinner;
  config.num_partitions = k;
  SpinnerPartitioner direct(config);

  // Scratch partitioning: identical assignment for identical seed.
  auto via_registry = (*adapter)->Partition(g, k);
  auto via_direct = direct.Partition(g);
  ASSERT_TRUE(via_registry.ok() && via_direct.ok());
  EXPECT_EQ(*via_registry, via_direct->assignment);

  // Repartition and Rescale shims agree too.
  auto adapted = (*adapter)->Repartition(g, k, *via_registry);
  auto adapted_direct = direct.Repartition(g, via_direct->assignment);
  ASSERT_TRUE(adapted.ok() && adapted_direct.ok());
  EXPECT_EQ(*adapted, adapted_direct->assignment);

  auto rescaled = (*adapter)->Rescale(g, *via_registry, k, k + 2);
  auto rescaled_direct = direct.Rescale(g, via_direct->assignment, k + 2);
  ASSERT_TRUE(rescaled.ok() && rescaled_direct.ok());
  EXPECT_EQ(*rescaled, rescaled_direct->assignment);
}

TEST(PartitionerRegistryTest, ExecutionShapeOptionsPlumbThroughToSpinner) {
  // --shards/--threads style options reach the spinner factory and never
  // change the computed assignment (the substrate's invariance guarantee).
  auto ws = WattsStrogatz(900, 3, 0.3, 13);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());

  PartitionerOptions one;
  one.execution.num_shards = 1;
  one.execution.num_threads = 1;
  PartitionerOptions many;
  many.execution.num_shards = 6;
  many.execution.num_threads = 3;
  auto a = PartitionerRegistry::Create("spinner", one);
  auto b = PartitionerRegistry::Create("spinner", many);
  ASSERT_TRUE(a.ok() && b.ok());
  auto labels_a = (*a)->Partition(*g, 5);
  auto labels_b = (*b)->Partition(*g, 5);
  ASSERT_TRUE(labels_a.ok() && labels_b.ok());
  EXPECT_EQ(*labels_a, *labels_b);
}

TEST(PartitionerRegistryTest, RestreamingRepartitionHandlesGrowth) {
  auto ws = WattsStrogatz(200, 3, 0.2, 5);
  ASSERT_TRUE(ws.ok());
  auto small = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(small.ok());
  auto restreaming = PartitionerRegistry::Create("restreaming");
  ASSERT_TRUE(restreaming.ok());
  auto labels = (*restreaming)->Partition(*small, 4);
  ASSERT_TRUE(labels.ok());

  // Grow the graph by 10 vertices chained onto vertex 0.
  EdgeList grown_edges = ws->edges;
  for (int64_t i = 0; i < 10; ++i) {
    grown_edges.push_back({200 + i, i});
  }
  auto grown = BuildSymmetric(210, grown_edges);
  ASSERT_TRUE(grown.ok());
  auto adapted = (*restreaming)->Repartition(*grown, 4, *labels);
  ASSERT_TRUE(adapted.ok()) << adapted.status();
  ASSERT_EQ(adapted->size(), 210u);
  for (PartitionId l : *adapted) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 4);
  }
}

}  // namespace
}  // namespace spinner
