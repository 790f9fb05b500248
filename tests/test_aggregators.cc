#include "pregel/aggregators.h"

#include <gtest/gtest.h>

namespace spinner::pregel {
namespace {

TEST(LongSumAggregatorTest, AddMergeReset) {
  LongSumAggregator a;
  a.Add(5);
  a.Add(-2);
  EXPECT_EQ(a.value(), 3);
  LongSumAggregator b;
  b.Add(10);
  a.MergeFrom(b);
  EXPECT_EQ(a.value(), 13);
  a.Reset();
  EXPECT_EQ(a.value(), 0);
}

TEST(DoubleSumAggregatorTest, AddAndMerge) {
  DoubleSumAggregator a;
  a.Add(0.5);
  a.Add(1.25);
  EXPECT_DOUBLE_EQ(a.value(), 1.75);
  auto clone = a.CloneEmpty();
  EXPECT_DOUBLE_EQ(dynamic_cast<DoubleSumAggregator*>(clone.get())->value(),
                   0.0);
}

TEST(DoubleMaxAggregatorTest, TracksMaximum) {
  DoubleMaxAggregator a;
  a.Add(-3.0);
  EXPECT_DOUBLE_EQ(a.value(), -3.0);
  a.Add(7.0);
  a.Add(2.0);
  EXPECT_DOUBLE_EQ(a.value(), 7.0);
  DoubleMaxAggregator b;
  b.Add(100.0);
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.value(), 100.0);
}

TEST(AggregatorRegistryTest, TwoPhaseShardedMerge) {
  AggregatorRegistry reg;
  reg.Register("sum", std::make_unique<LongSumAggregator>(),
               /*persistent=*/false);
  reg.CreatePartials(3);
  reg.Partial<LongSumAggregator>("sum", 0)->Add(1);
  reg.Partial<LongSumAggregator>("sum", 1)->Add(2);
  reg.Partial<LongSumAggregator>("sum", 2)->Add(4);
  reg.MergePartials();
  EXPECT_EQ(reg.Get<LongSumAggregator>("sum")->value(), 7);
  // Non-persistent: next barrier with empty partials resets to zero.
  reg.MergePartials();
  EXPECT_EQ(reg.Get<LongSumAggregator>("sum")->value(), 0);
}

TEST(AggregatorRegistryTest, PersistentAccumulatesAcrossBarriers) {
  AggregatorRegistry reg;
  reg.Register("load", std::make_unique<LongSumAggregator>(),
               /*persistent=*/true);
  reg.CreatePartials(2);
  reg.Partial<LongSumAggregator>("load", 0)->Add(10);
  reg.MergePartials();
  reg.Partial<LongSumAggregator>("load", 1)->Add(-3);
  reg.MergePartials();
  EXPECT_EQ(reg.Get<LongSumAggregator>("load")->value(), 7);
}

TEST(AggregatorRegistryTest, PartialsResetAfterMerge) {
  AggregatorRegistry reg;
  reg.Register("s", std::make_unique<LongSumAggregator>(), false);
  reg.CreatePartials(1);
  reg.Partial<LongSumAggregator>("s", 0)->Add(5);
  reg.MergePartials();
  EXPECT_EQ(reg.Partial<LongSumAggregator>("s", 0)->value(), 0);
}

TEST(AggregatorRegistryTest, HasReportsRegistration) {
  AggregatorRegistry reg;
  EXPECT_FALSE(reg.Has("x"));
  reg.Register("x", std::make_unique<LongSumAggregator>(), false);
  EXPECT_TRUE(reg.Has("x"));
}

TEST(AggregatorRegistryDeathTest, UnknownNameAborts) {
  AggregatorRegistry reg;
  EXPECT_DEATH(reg.Get<LongSumAggregator>("missing"), "unknown aggregator");
}

TEST(AggregatorRegistryDeathTest, TypeMismatchAborts) {
  AggregatorRegistry reg;
  reg.Register("x", std::make_unique<LongSumAggregator>(), false);
  EXPECT_DEATH(reg.Get<DoubleSumAggregator>("x"), "type mismatch");
}

TEST(AggregatorRegistryDeathTest, DoubleRegistrationAborts) {
  AggregatorRegistry reg;
  reg.Register("x", std::make_unique<LongSumAggregator>(), false);
  EXPECT_DEATH(
      reg.Register("x", std::make_unique<LongSumAggregator>(), false),
      "registered twice");
}

}  // namespace
}  // namespace spinner::pregel
