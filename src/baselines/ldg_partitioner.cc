#include "baselines/ldg_partitioner.h"

#include <memory>

#include "baselines/partitioner_registry.h"
#include "baselines/streaming_pass.h"

namespace spinner {

Result<std::vector<PartitionId>> LdgPartitioner::Partition(
    const CsrGraph& converted, int k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  // Capacity with the canonical slack of one unit per partition (5% of a
  // partition's share in edge mode).
  const double total_units = TotalStreamUnits(converted, balance_on_edges_);
  const double capacity = total_units / static_cast<double>(k) +
                          (balance_on_edges_ ? 0.05 * total_units / k : 1.0);
  std::vector<PartitionId> labels(converted.NumVertices(), kNoPartition);
  std::vector<int64_t> sizes(k, 0);
  StreamingPass(converted, capacity, balance_on_edges_,
                StreamOrder(converted.NumVertices(), stream_seed_),
                LdgScore(capacity), labels, sizes);
  return labels;
}

bool RegisterLdgPartitioner() {
  return PartitionerRegistry::Register(
      "ldg",
      [](const PartitionerOptions& options)
          -> Result<std::unique_ptr<GraphPartitioner>> {
        return std::unique_ptr<GraphPartitioner>(
            std::make_unique<LdgPartitioner>(options.stream_seed,
                                             options.balance_on_edges));
      });
}

}  // namespace spinner
