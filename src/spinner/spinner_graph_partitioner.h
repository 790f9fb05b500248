// SpinnerGraphPartitioner: Spinner behind the uniform GraphPartitioner
// interface, so benches, the CLI and the registry treat it exactly like
// the Table I baselines — with the adapt/rescale capabilities the
// baselines (restreaming aside) lack.
//
//   auto p = PartitionerRegistry::Create("spinner", options);
//   auto labels = (*p)->Partition(converted, k);
//   auto adapted = (*p)->Repartition(grown, k, *labels);
#ifndef SPINNER_SPINNER_SPINNER_GRAPH_PARTITIONER_H_
#define SPINNER_SPINNER_SPINNER_GRAPH_PARTITIONER_H_

#include "baselines/partitioner_interface.h"
#include "spinner/partitioner.h"

namespace spinner {

/// Adapter over SpinnerPartitioner. The k passed to the interface methods
/// overrides config.num_partitions per call; everything else (c, ε, seed,
/// execution shape, balance mode) comes from the config given at
/// construction.
class SpinnerGraphPartitioner : public GraphPartitioner {
 public:
  explicit SpinnerGraphPartitioner(SpinnerConfig config = {})
      : config_(config) {}

  std::string name() const override { return "spinner"; }

  Result<std::vector<PartitionId>> Partition(const CsrGraph& converted,
                                             int k) const override;

  bool SupportsRepartition() const override { return true; }
  Result<std::vector<PartitionId>> Repartition(
      const CsrGraph& converted, int k,
      std::span<const PartitionId> previous) const override;

  bool SupportsRescale() const override { return true; }
  Result<std::vector<PartitionId>> Rescale(
      const CsrGraph& converted, std::span<const PartitionId> previous,
      int old_k, int new_k) const override;

  const SpinnerConfig& config() const { return config_; }

 private:
  SpinnerConfig config_;
};

/// Registry hook: adds "spinner". Called by PartitionerRegistry.
bool RegisterSpinnerGraphPartitioner();

}  // namespace spinner

#endif  // SPINNER_SPINNER_SPINNER_GRAPH_PARTITIONER_H_
