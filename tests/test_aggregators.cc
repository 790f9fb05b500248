#include "pregel/aggregators.h"

#include <gtest/gtest.h>

namespace spinner::pregel {
namespace {

TEST(DoubleSumAggregatorTest, AddAndMerge) {
  DoubleSumAggregator a;
  a.Add(0.5);
  a.Add(1.25);
  EXPECT_DOUBLE_EQ(a.value(), 1.75);
  auto clone = a.CloneEmpty();
  EXPECT_DOUBLE_EQ(dynamic_cast<DoubleSumAggregator*>(clone.get())->value(),
                   0.0);
  DoubleSumAggregator b;
  b.Add(10.0);
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.value(), 11.75);
  a.Reset();
  EXPECT_DOUBLE_EQ(a.value(), 0.0);
}

TEST(AggregatorRegistryTest, TwoPhaseShardedMerge) {
  AggregatorRegistry reg;
  reg.Register("sum", std::make_unique<DoubleSumAggregator>());
  reg.CreatePartials(3);
  reg.Partial<DoubleSumAggregator>("sum", 0)->Add(1);
  reg.Partial<DoubleSumAggregator>("sum", 1)->Add(2);
  reg.Partial<DoubleSumAggregator>("sum", 2)->Add(4);
  reg.MergePartials();
  EXPECT_EQ(reg.Get<DoubleSumAggregator>("sum")->value(), 7);
  // The next barrier with empty partials resets to zero.
  reg.MergePartials();
  EXPECT_EQ(reg.Get<DoubleSumAggregator>("sum")->value(), 0);
}

TEST(AggregatorRegistryTest, PartialsResetAfterMerge) {
  AggregatorRegistry reg;
  reg.Register("s", std::make_unique<DoubleSumAggregator>());
  reg.CreatePartials(1);
  reg.Partial<DoubleSumAggregator>("s", 0)->Add(5);
  reg.MergePartials();
  EXPECT_EQ(reg.Partial<DoubleSumAggregator>("s", 0)->value(), 0);
}

TEST(AggregatorRegistryDeathTest, UnknownNameAborts) {
  AggregatorRegistry reg;
  EXPECT_DEATH(reg.Get<DoubleSumAggregator>("missing"), "unknown aggregator");
}

TEST(AggregatorRegistryDeathTest, TypeMismatchAborts) {
  // A second aggregator type, so a typed lookup can name the wrong one.
  class CountAggregator : public AggregatorBase {
   public:
    std::unique_ptr<AggregatorBase> CloneEmpty() const override {
      return std::make_unique<CountAggregator>();
    }
    void MergeFrom(const AggregatorBase&) override {}
    void Reset() override {}
  };
  AggregatorRegistry reg;
  reg.Register("x", std::make_unique<CountAggregator>());
  EXPECT_DEATH(reg.Get<DoubleSumAggregator>("x"), "type mismatch");
}

TEST(AggregatorRegistryDeathTest, DoubleRegistrationAborts) {
  AggregatorRegistry reg;
  reg.Register("x", std::make_unique<DoubleSumAggregator>());
  EXPECT_DEATH(reg.Register("x", std::make_unique<DoubleSumAggregator>()),
               "registered twice");
}

}  // namespace
}  // namespace spinner::pregel
