// Initial label assignment policies for the three partitioning modes:
// scratch (§III.A: uniform random), incremental (§III.D: keep previous
// labels, new vertices join the least-loaded partition) and elastic
// (§III.E: probabilistic migration to added partitions / evacuation of
// removed ones). Pure functions — unit-tested in isolation, then fed to
// the superstep driver (spinner/superstep_driver.h) as the initial_labels
// vector.
#ifndef SPINNER_SPINNER_INITIAL_ASSIGNMENT_H_
#define SPINNER_SPINNER_INITIAL_ASSIGNMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/types.h"

namespace spinner {

/// Uniform random label in [0, k) per vertex, deterministic in seed.
std::vector<PartitionId> RandomAssignment(int64_t num_vertices, int k,
                                          uint64_t seed);

/// Incremental restart over a graph whose vertex v has weighted degree
/// `weighted_degrees[v]`: vertices [0, previous.size()) keep their
/// previous label; each new vertex joins the currently least-loaded
/// partition (by weighted degree), processed in id order with loads
/// updated as it goes. Fails if previous labels fall outside [0, k) or the
/// graph has fewer vertices than `previous`.
Result<std::vector<PartitionId>> ExtendForNewVertices(
    std::span<const int64_t> weighted_degrees,
    std::span<const PartitionId> previous, int k);

/// Elastic scale-out (§III.E): with n = new_k − old_k added partitions,
/// each vertex migrates with probability n/(old_k+n) to one of the new
/// partitions chosen uniformly at random (Eq. 11). Fails unless
/// new_k > old_k and previous labels lie in [0, old_k).
Result<std::vector<PartitionId>> ElasticExpand(
    std::span<const PartitionId> previous, int old_k, int new_k,
    uint64_t seed);

/// Elastic scale-in (§III.E): partitions [new_k, old_k) are removed; their
/// vertices pick a remaining partition uniformly at random. Fails unless
/// 0 < new_k < old_k and previous labels lie in [0, old_k).
Result<std::vector<PartitionId>> ElasticShrink(
    std::span<const PartitionId> previous, int old_k, int new_k,
    uint64_t seed);

/// Elastic restart labels (§III.E) for a move from old_k to new_k
/// partitions: ElasticExpand when growing, ElasticShrink when shrinking,
/// a copy of `previous` when k is unchanged.
Result<std::vector<PartitionId>> ElasticRelabel(
    std::span<const PartitionId> previous, int old_k, int new_k,
    uint64_t seed);

}  // namespace spinner

#endif  // SPINNER_SPINNER_INITIAL_ASSIGNMENT_H_
