#include "spinner/initial_assignment.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/conversion.h"
#include "graph/generators.h"

namespace spinner {
namespace {

TEST(RandomAssignmentTest, RangeDeterminismSpread) {
  auto a = RandomAssignment(1000, 8, 3);
  auto b = RandomAssignment(1000, 8, 3);
  auto c = RandomAssignment(1000, 8, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::vector<int> counts(8, 0);
  for (PartitionId l : a) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 8);
    ++counts[l];
  }
  for (int cnt : counts) EXPECT_NEAR(cnt, 125, 50);  // roughly uniform
}

TEST(ExtendForNewVerticesTest, KeepsExistingAndBalancesNew) {
  // 4 old vertices in a path, 2 new isolated-ish vertices appended.
  auto g = BuildSymmetric(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  ASSERT_TRUE(g.ok());
  const std::vector<PartitionId> previous = {0, 0, 0, 0};
  auto labels = ExtendForNewVertices(g->WeightedDegrees(), previous, 2);
  ASSERT_TRUE(labels.ok());
  for (int v = 0; v < 4; ++v) EXPECT_EQ((*labels)[v], 0);
  // Partition 0 already carries all the old load; both new vertices must
  // land on the empty partition 1 (least loaded at each step... the second
  // one still: load(1)=deg(4)=1 < load(0)=6).
  EXPECT_EQ((*labels)[4], 1);
  EXPECT_EQ((*labels)[5], 1);
}

TEST(ExtendForNewVerticesTest, NoNewVerticesIsIdentity) {
  auto g = BuildSymmetric(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  const std::vector<PartitionId> previous = {1, 0, 1};
  auto labels = ExtendForNewVertices(g->WeightedDegrees(), previous, 2);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, previous);
}

TEST(ExtendForNewVerticesTest, RejectsBadInputs) {
  auto g = BuildSymmetric(2, {{0, 1}});
  ASSERT_TRUE(g.ok());
  const std::vector<PartitionId> too_many = {0, 0, 0};
  EXPECT_FALSE(ExtendForNewVertices(g->WeightedDegrees(), too_many, 2).ok());
  const std::vector<PartitionId> bad_label = {5, 0};
  EXPECT_FALSE(ExtendForNewVertices(g->WeightedDegrees(), bad_label, 2).ok());
}

TEST(ElasticExpandTest, MigratesExpectedFraction) {
  const int old_k = 4;
  const int new_k = 6;  // n=2 added, p = 2/6 = 1/3
  const int64_t n = 30000;
  std::vector<PartitionId> previous(n);
  for (int64_t v = 0; v < n; ++v) {
    previous[v] = static_cast<PartitionId>(v % old_k);
  }
  auto labels = ElasticExpand(previous, old_k, new_k, 7);
  ASSERT_TRUE(labels.ok());
  int64_t moved = 0;
  std::set<PartitionId> new_labels_seen;
  for (int64_t v = 0; v < n; ++v) {
    if ((*labels)[v] != previous[v]) {
      ++moved;
      EXPECT_GE((*labels)[v], old_k);  // only moves into new partitions
      EXPECT_LT((*labels)[v], new_k);
      new_labels_seen.insert((*labels)[v]);
    }
  }
  EXPECT_NEAR(static_cast<double>(moved) / static_cast<double>(n), 1.0 / 3.0,
              0.02);
  EXPECT_EQ(new_labels_seen.size(), 2u);  // both new partitions used
}

TEST(ElasticExpandTest, DeterministicAndValidated) {
  const std::vector<PartitionId> prev = {0, 1, 0, 1};
  auto a = ElasticExpand(prev, 2, 3, 5);
  auto b = ElasticExpand(prev, 2, 3, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(ElasticExpand(prev, 2, 2, 5).ok());   // not an expansion
  EXPECT_FALSE(ElasticExpand(prev, 0, 3, 5).ok());
  const std::vector<PartitionId> bad = {0, 9};
  EXPECT_FALSE(ElasticExpand(bad, 2, 3, 5).ok());
}

TEST(ElasticShrinkTest, EvacuatesRemovedPartitionsOnly) {
  const int old_k = 4;
  const int new_k = 2;
  const int64_t n = 10000;
  std::vector<PartitionId> previous(n);
  for (int64_t v = 0; v < n; ++v) {
    previous[v] = static_cast<PartitionId>(v % old_k);
  }
  auto labels = ElasticShrink(previous, old_k, new_k, 9);
  ASSERT_TRUE(labels.ok());
  std::vector<int64_t> counts(new_k, 0);
  for (int64_t v = 0; v < n; ++v) {
    ASSERT_GE((*labels)[v], 0);
    ASSERT_LT((*labels)[v], new_k);
    if (previous[v] < new_k) {
      EXPECT_EQ((*labels)[v], previous[v]);  // survivors stay put
    }
    ++counts[(*labels)[v]];
  }
  // Evacuees spread roughly evenly across survivors.
  EXPECT_NEAR(counts[0], n / 2, n / 20);
}

TEST(ElasticShrinkTest, Validation) {
  const std::vector<PartitionId> prev = {0, 1, 2};
  EXPECT_FALSE(ElasticShrink(prev, 3, 3, 1).ok());
  EXPECT_FALSE(ElasticShrink(prev, 3, 0, 1).ok());
  const std::vector<PartitionId> bad = {0, 7, 1};
  EXPECT_FALSE(ElasticShrink(bad, 3, 2, 1).ok());
}

}  // namespace
}  // namespace spinner
