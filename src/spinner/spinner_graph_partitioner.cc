#include "spinner/spinner_graph_partitioner.h"

#include <memory>
#include <utility>

#include "baselines/partitioner_registry.h"

namespace spinner {

namespace {

SpinnerConfig WithK(SpinnerConfig config, int k) {
  config.num_partitions = k;
  return config;
}

}  // namespace

Result<std::vector<PartitionId>> SpinnerGraphPartitioner::Partition(
    const CsrGraph& converted, int k) const {
  SpinnerPartitioner partitioner(WithK(config_, k));
  SPINNER_ASSIGN_OR_RETURN(PartitionResult result,
                           partitioner.Partition(converted));
  return std::move(result.assignment);
}

Result<std::vector<PartitionId>> SpinnerGraphPartitioner::Repartition(
    const CsrGraph& converted, int k,
    std::span<const PartitionId> previous) const {
  SpinnerPartitioner partitioner(WithK(config_, k));
  SPINNER_ASSIGN_OR_RETURN(PartitionResult result,
                           partitioner.Repartition(converted, previous));
  return std::move(result.assignment);
}

Result<std::vector<PartitionId>> SpinnerGraphPartitioner::Rescale(
    const CsrGraph& converted, std::span<const PartitionId> previous,
    int old_k, int new_k) const {
  // SpinnerPartitioner::Rescale reads the previous k from its config.
  SpinnerPartitioner partitioner(WithK(config_, old_k));
  SPINNER_ASSIGN_OR_RETURN(
      PartitionResult result,
      partitioner.Rescale(converted, previous, new_k));
  return std::move(result.assignment);
}

bool RegisterSpinnerGraphPartitioner() {
  return PartitionerRegistry::Register(
      "spinner",
      [](const PartitionerOptions& options)
          -> Result<std::unique_ptr<GraphPartitioner>> {
        SpinnerConfig config = options.spinner;
        // The sweep-level seed wins unless the caller diverged the
        // spinner config's seed explicitly; the sweep-level execution
        // options win field-wise over the spinner config's.
        if (config.seed == SpinnerConfig{}.seed) config.seed = options.seed;
        config.execution =
            MergedExecution(options.execution, config.execution);
        return std::unique_ptr<GraphPartitioner>(
            std::make_unique<SpinnerGraphPartitioner>(config));
      });
}

}  // namespace spinner
