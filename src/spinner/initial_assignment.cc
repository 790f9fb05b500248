#include "spinner/initial_assignment.h"

#include <algorithm>

#include "common/random.h"
#include "common/string_util.h"

namespace spinner {

namespace {

constexpr uint64_t kScratchDomain = 0x5343'5241'5443'4800ULL;
constexpr uint64_t kElasticDomain = 0x454c'4153'5449'4300ULL;

Status ValidateLabels(std::span<const PartitionId> labels, int k) {
  for (size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] < 0 || labels[v] >= k) {
      return Status::InvalidArgument(
          StrFormat("vertex %zu has label %d outside [0,%d)", v, labels[v],
                    k));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<PartitionId> RandomAssignment(int64_t num_vertices, int k,
                                          uint64_t seed) {
  SPINNER_CHECK(k >= 1);
  std::vector<PartitionId> labels(num_vertices);
  for (int64_t v = 0; v < num_vertices; ++v) {
    labels[v] = static_cast<PartitionId>(
        HashUniform(HashCombine(seed, kScratchDomain,
                                static_cast<uint64_t>(v)),
                    static_cast<uint64_t>(k)));
  }
  return labels;
}

Result<std::vector<PartitionId>> ExtendForNewVertices(
    std::span<const int64_t> weighted_degrees,
    std::span<const PartitionId> previous, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const auto n = static_cast<int64_t>(weighted_degrees.size());
  if (static_cast<int64_t>(previous.size()) > n) {
    return Status::InvalidArgument(StrFormat(
        "previous assignment covers %zu vertices but graph has %lld",
        previous.size(), static_cast<long long>(n)));
  }
  SPINNER_RETURN_IF_ERROR(ValidateLabels(previous, k));

  std::vector<PartitionId> labels(n, kNoPartition);
  std::vector<int64_t> loads(k, 0);
  for (size_t v = 0; v < previous.size(); ++v) {
    labels[v] = previous[v];
    loads[previous[v]] += weighted_degrees[v];
  }
  for (int64_t v = static_cast<int64_t>(previous.size()); v < n; ++v) {
    // "we initially assign them to the least loaded partition" (§III.D).
    const auto least = static_cast<PartitionId>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    labels[v] = least;
    loads[least] += weighted_degrees[v];
  }
  return labels;
}

Result<std::vector<PartitionId>> ElasticExpand(
    std::span<const PartitionId> previous, int old_k, int new_k,
    uint64_t seed) {
  if (old_k < 1 || new_k <= old_k) {
    return Status::InvalidArgument(
        StrFormat("ElasticExpand requires new_k (%d) > old_k (%d) >= 1",
                  new_k, old_k));
  }
  SPINNER_RETURN_IF_ERROR(ValidateLabels(previous, old_k));

  const int added = new_k - old_k;
  const double p =
      static_cast<double>(added) / static_cast<double>(old_k + added);
  std::vector<PartitionId> labels(previous.begin(), previous.end());
  for (size_t v = 0; v < labels.size(); ++v) {
    const uint64_t key =
        HashCombine(seed, kElasticDomain, static_cast<uint64_t>(v));
    if (HashUniformDouble(key) < p) {
      // Uniform choice among the added partitions (Eq. 11 neighborhood).
      labels[v] = static_cast<PartitionId>(
          old_k + HashUniform(SplitMix64(key ^ 0xADDEDULL),
                              static_cast<uint64_t>(added)));
    }
  }
  return labels;
}

Result<std::vector<PartitionId>> ElasticShrink(
    std::span<const PartitionId> previous, int old_k, int new_k,
    uint64_t seed) {
  if (new_k < 1 || new_k >= old_k) {
    return Status::InvalidArgument(
        StrFormat("ElasticShrink requires 1 <= new_k (%d) < old_k (%d)",
                  new_k, old_k));
  }
  SPINNER_RETURN_IF_ERROR(ValidateLabels(previous, old_k));

  std::vector<PartitionId> labels(previous.begin(), previous.end());
  for (size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] < new_k) continue;  // surviving partition: stay
    const uint64_t key =
        HashCombine(seed, kElasticDomain ^ 0x5368ULL,
                    static_cast<uint64_t>(v));
    labels[v] = static_cast<PartitionId>(
        HashUniform(key, static_cast<uint64_t>(new_k)));
  }
  return labels;
}

Result<std::vector<PartitionId>> ElasticRelabel(
    std::span<const PartitionId> previous, int old_k, int new_k,
    uint64_t seed) {
  if (new_k > old_k) return ElasticExpand(previous, old_k, new_k, seed);
  if (new_k < old_k) return ElasticShrink(previous, old_k, new_k, seed);
  return std::vector<PartitionId>(previous.begin(), previous.end());
}

}  // namespace spinner
