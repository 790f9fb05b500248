#include "baselines/fennel_partitioner.h"

#include <cmath>
#include <memory>

#include "baselines/partitioner_registry.h"
#include "baselines/streaming_pass.h"

namespace spinner {

Result<std::vector<PartitionId>> FennelPartitioner::Partition(
    const CsrGraph& converted, int k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (gamma_ <= 1.0) return Status::InvalidArgument("gamma must be > 1");
  if (balance_cap_ < 1.0) {
    return Status::InvalidArgument("balance_cap must be >= 1");
  }
  const int64_t n = converted.NumVertices();
  if (n == 0) return std::vector<PartitionId>{};
  // m = undirected edge count; the converted graph stores each edge twice.
  const double m = static_cast<double>(converted.NumArcs()) / 2.0;
  const double alpha = std::sqrt(static_cast<double>(k)) * m /
                       std::pow(static_cast<double>(n), 1.5);

  const double total_units = TotalStreamUnits(converted, balance_on_edges_);
  const double max_size = balance_cap_ * total_units / static_cast<double>(k);
  const auto score = [&](int64_t neighbors, int64_t size) {
    // In edge mode, rescale the load to "equivalent vertices" so the
    // alpha calibration from the Fennel paper still applies.
    const double load =
        balance_on_edges_ ? static_cast<double>(size) *
                                static_cast<double>(n) / total_units
                          : static_cast<double>(size);
    return static_cast<double>(neighbors) -
           alpha * gamma_ / 2.0 * std::pow(load, gamma_ - 1.0);
  };
  std::vector<PartitionId> labels(n, kNoPartition);
  std::vector<int64_t> sizes(k, 0);
  StreamingPass(converted, max_size, balance_on_edges_,
                StreamOrder(n, stream_seed_), score, labels, sizes);
  return labels;
}

bool RegisterFennelPartitioner() {
  return PartitionerRegistry::Register(
      "fennel",
      [](const PartitionerOptions& options)
          -> Result<std::unique_ptr<GraphPartitioner>> {
        return std::unique_ptr<GraphPartitioner>(
            std::make_unique<FennelPartitioner>(
                options.fennel_gamma, options.fennel_balance_cap,
                options.stream_seed, options.balance_on_edges));
      });
}

}  // namespace spinner
