#include "pregel/aggregators.h"

namespace spinner::pregel {

void AggregatorRegistry::Register(const std::string& name,
                                  std::unique_ptr<AggregatorBase> agg) {
  SPINNER_CHECK(slots_.count(name) == 0)
      << "aggregator registered twice: " << name;
  Slot slot;
  slot.global = std::move(agg);
  slots_[name] = std::move(slot);
}

void AggregatorRegistry::CreatePartials(int num_workers) {
  for (auto& [name, slot] : slots_) {
    slot.partials.clear();
    slot.partials.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) {
      slot.partials.push_back(slot.global->CloneEmpty());
    }
  }
}

void AggregatorRegistry::MergePartials() {
  for (auto& [name, slot] : slots_) {
    slot.global->Reset();
    for (auto& partial : slot.partials) {
      slot.global->MergeFrom(*partial);
      partial->Reset();
    }
  }
}

}  // namespace spinner::pregel
