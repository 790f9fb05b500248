// Pregel aggregators: commutative/associative global reductions.
//
// Semantics follow Giraph: values a vertex aggregates during superstep S
// become visible (merged) during superstep S+1. The implementation mirrors
// Giraph's *sharded aggregators* (paper §IV.A.5): every worker accumulates
// into a private partial — no synchronization during compute — and partials
// are merged at the superstep barrier in worker order (deterministic).
// Every merged value is a per-superstep result: it resets at each barrier.
#ifndef SPINNER_PREGEL_AGGREGATORS_H_
#define SPINNER_PREGEL_AGGREGATORS_H_

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

/// Sum of double contributions.
class DoubleSumAggregator : public AggregatorBase {
 public:
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

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

/// Registry of named aggregators with worker-partial management.
class AggregatorRegistry {
 public:
  /// Registers an aggregator under `name`.
  void Register(const std::string& name, std::unique_ptr<AggregatorBase> agg);

  /// Typed access to the merged global value (what vertices read).
  template <typename T>
  T* Get(const std::string& name) {
    auto it = slots_.find(name);
    SPINNER_CHECK(it != slots_.end()) << "unknown aggregator: " << name;
    T* typed = dynamic_cast<T*>(it->second.global.get());
    SPINNER_CHECK(typed != nullptr) << "aggregator type mismatch: " << name;
    return typed;
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

  /// Barrier step: resets every global value, then merges all worker
  /// partials into it (in worker order — deterministic) and resets the
  /// partials.
  void MergePartials();

 private:
  struct Slot {
    std::unique_ptr<AggregatorBase> global;
    std::vector<std::unique_ptr<AggregatorBase>> partials;
  };
  std::map<std::string, Slot> slots_;
};

}  // namespace spinner::pregel

#endif  // SPINNER_PREGEL_AGGREGATORS_H_
