// Pregel aggregators: commutative/associative global reductions.
//
// Semantics follow Giraph: values a vertex aggregates during superstep S
// become visible (merged) during superstep S+1. The implementation mirrors
// Giraph's *sharded aggregators* (paper §IV.A.5): every worker accumulates
// into a private partial — no synchronization during compute — and partials
// are merged at the superstep barrier in worker order (deterministic).
//
// A `persistent` aggregator keeps accumulating across supersteps (a value
// maintained by deltas); a non-persistent one resets at every barrier (a
// per-superstep counter).
#ifndef SPINNER_PREGEL_AGGREGATORS_H_
#define SPINNER_PREGEL_AGGREGATORS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

namespace spinner::pregel {

/// Type-erased aggregator. Concrete aggregators add typed accumulate/read
/// methods; the engine manipulates them through this interface.
class AggregatorBase {
 public:
  virtual ~AggregatorBase() = default;

  /// A fresh, zero-valued aggregator of the same concrete type (used to
  /// create worker partials).
  virtual std::unique_ptr<AggregatorBase> CloneEmpty() const = 0;

  /// Folds `other` (same concrete type) into this.
  virtual void MergeFrom(const AggregatorBase& other) = 0;

  /// Resets to the zero value.
  virtual void Reset() = 0;
};

/// Sum of int64 contributions.
class LongSumAggregator : public AggregatorBase {
 public:
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }
  void set_value(int64_t v) { value_ = v; }

  std::unique_ptr<AggregatorBase> CloneEmpty() const override {
    return std::make_unique<LongSumAggregator>();
  }
  void MergeFrom(const AggregatorBase& other) override {
    value_ += static_cast<const LongSumAggregator&>(other).value_;
  }
  void Reset() override { value_ = 0; }

 private:
  int64_t value_ = 0;
};

/// Sum of double contributions.
class DoubleSumAggregator : public AggregatorBase {
 public:
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void set_value(double v) { value_ = v; }

  std::unique_ptr<AggregatorBase> CloneEmpty() const override {
    return std::make_unique<DoubleSumAggregator>();
  }
  void MergeFrom(const AggregatorBase& other) override {
    value_ += static_cast<const DoubleSumAggregator&>(other).value_;
  }
  void Reset() override { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Maximum of double contributions.
class DoubleMaxAggregator : public AggregatorBase {
 public:
  void Add(double v) { value_ = value_ > v ? value_ : v; }
  double value() const { return value_; }

  std::unique_ptr<AggregatorBase> CloneEmpty() const override {
    return std::make_unique<DoubleMaxAggregator>();
  }
  void MergeFrom(const AggregatorBase& other) override {
    Add(static_cast<const DoubleMaxAggregator&>(other).value_);
  }
  void Reset() override { value_ = kZero; }

 private:
  static constexpr double kZero = -1.7976931348623157e308;
  double value_ = kZero;
};

/// Registry of named aggregators with worker-partial management.
class AggregatorRegistry {
 public:
  /// Registers an aggregator. `persistent` controls whether the merged
  /// global value survives the superstep barrier or resets.
  void Register(const std::string& name, std::unique_ptr<AggregatorBase> agg,
                bool persistent);

  /// True iff `name` is registered.
  bool Has(const std::string& name) const { return slots_.count(name) > 0; }

  /// Typed access to the merged global value (what vertices read).
  template <typename T>
  T* Get(const std::string& name) {
    auto it = slots_.find(name);
    SPINNER_CHECK(it != slots_.end()) << "unknown aggregator: " << name;
    T* typed = dynamic_cast<T*>(it->second.global.get());
    SPINNER_CHECK(typed != nullptr) << "aggregator type mismatch: " << name;
    return typed;
  }
  template <typename T>
  const T* Get(const std::string& name) const {
    return const_cast<AggregatorRegistry*>(this)->Get<T>(name);
  }

  /// Typed access to worker w's partial (what vertices write).
  template <typename T>
  T* Partial(const std::string& name, int worker) {
    auto it = slots_.find(name);
    SPINNER_CHECK(it != slots_.end()) << "unknown aggregator: " << name;
    SPINNER_DCHECK(worker >= 0 &&
                   worker < static_cast<int>(it->second.partials.size()));
    T* typed = dynamic_cast<T*>(it->second.partials[worker].get());
    SPINNER_CHECK(typed != nullptr) << "aggregator type mismatch: " << name;
    return typed;
  }

  /// Creates one partial per worker for every registered aggregator.
  void CreatePartials(int num_workers);

  /// Barrier step: merges all worker partials into the global value (in
  /// worker order — deterministic), resetting non-persistent globals first
  /// and the partials afterwards.
  void MergePartials();

 private:
  struct Slot {
    std::unique_ptr<AggregatorBase> global;
    std::vector<std::unique_ptr<AggregatorBase>> partials;
    bool persistent = false;
  };
  std::map<std::string, Slot> slots_;
};

}  // namespace spinner::pregel

#endif  // SPINNER_PREGEL_AGGREGATORS_H_
