#include "baselines/restreaming_partitioner.h"

#include <memory>

#include "baselines/partitioner_registry.h"
#include "baselines/streaming_pass.h"

namespace spinner {

Result<std::vector<PartitionId>> RestreamingPartitioner::Partition(
    const CsrGraph& converted, int k) const {
  std::vector<PartitionId> empty(converted.NumVertices(), kNoPartition);
  return Restream(converted, k, empty, num_passes_);
}

Result<std::vector<PartitionId>> RestreamingPartitioner::Restream(
    const CsrGraph& converted, int k,
    const std::vector<PartitionId>& previous, int num_passes) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (num_passes < 1) {
    return Status::InvalidArgument("need at least one pass");
  }
  const int64_t n = converted.NumVertices();
  if (static_cast<int64_t>(previous.size()) != n) {
    return Status::InvalidArgument(
        "previous assignment must cover every vertex");
  }
  for (PartitionId l : previous) {
    if (l != kNoPartition && (l < 0 || l >= k)) {
      return Status::InvalidArgument("previous label out of range");
    }
  }

  const std::vector<VertexId> order = StreamOrder(n, stream_seed_);
  const double capacity =
      1.05 * TotalStreamUnits(converted, balance_on_edges_) /
          static_cast<double>(k) +
      1.0;
  std::vector<PartitionId> labels = previous;
  std::vector<int64_t> sizes(k, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (labels[v] != kNoPartition) {
      sizes[labels[v]] += StreamUnit(converted, v, balance_on_edges_);
    }
  }
  // Each pass counts a vertex's neighbours by their current labels: the
  // previous pass's for those not yet restreamed (the standard restreaming
  // semantics).
  for (int pass = 0; pass < num_passes; ++pass) {
    const std::vector<PartitionId> before = labels;
    StreamingPass(converted, capacity, balance_on_edges_, order,
                  LdgScore(capacity), labels, sizes);
    if (labels == before) break;  // converged
  }
  return labels;
}

Result<std::vector<PartitionId>> RestreamingPartitioner::Repartition(
    const CsrGraph& converted, int k,
    std::span<const PartitionId> previous) const {
  if (static_cast<int64_t>(previous.size()) > converted.NumVertices()) {
    return Status::InvalidArgument(
        "previous assignment covers more vertices than the graph");
  }
  std::vector<PartitionId> padded(previous.begin(), previous.end());
  padded.resize(converted.NumVertices(), kNoPartition);
  return Restream(converted, k, padded, num_passes_);
}

bool RegisterRestreamingPartitioner() {
  return PartitionerRegistry::Register(
      "restreaming",
      [](const PartitionerOptions& options)
          -> Result<std::unique_ptr<GraphPartitioner>> {
        return std::unique_ptr<GraphPartitioner>(
            std::make_unique<RestreamingPartitioner>(
                options.restream_passes, options.stream_seed,
                options.balance_on_edges));
      });
}

}  // namespace spinner
