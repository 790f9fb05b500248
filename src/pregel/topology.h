// Vertex→worker placement policies. Placement is where a partitioning pays
// off: §V.F of the paper plugs Spinner's labels into Giraph's placement so
// that same-label vertices land on the same machine.
#ifndef SPINNER_PREGEL_TOPOLOGY_H_
#define SPINNER_PREGEL_TOPOLOGY_H_

#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "graph/types.h"

namespace spinner::pregel {

/// A logical worker: the unit of placement and of sequential execution.
using WorkerId = int;

/// Placement function type: vertex id → worker id in [0, num_workers).
using Placement = std::function<WorkerId(VertexId)>;

/// Giraph's default: hash partitioning, `h(v) mod W`. The baseline every
/// experiment in §V.F compares against.
inline Placement HashPlacement(int num_workers) {
  SPINNER_CHECK(num_workers >= 1);
  return [num_workers](VertexId v) {
    return static_cast<WorkerId>(
        SplitMix64(static_cast<uint64_t>(v)) % num_workers);
  };
}

/// Places vertex v on worker `assignment[v] mod W`: the partition-aware
/// placement of §V.F (with W == k this is exactly "one partition per
/// machine"). Copies the assignment so the source may go out of scope.
inline Placement LabelPlacement(std::vector<PartitionId> assignment,
                                int num_workers) {
  SPINNER_CHECK(num_workers >= 1);
  return [assignment = std::move(assignment), num_workers](VertexId v) {
    SPINNER_DCHECK(v < static_cast<VertexId>(assignment.size()));
    const PartitionId p = assignment[v];
    SPINNER_DCHECK(p >= 0);
    return static_cast<WorkerId>(p % num_workers);
  };
}

/// Contiguous range placement (vertex blocks), useful in tests.
inline Placement BlockPlacement(int64_t num_vertices, int num_workers) {
  SPINNER_CHECK(num_workers >= 1 && num_vertices >= 0);
  const int64_t block = (num_vertices + num_workers - 1) / num_workers;
  return [block](VertexId v) {
    return static_cast<WorkerId>(block == 0 ? 0 : v / block);
  };
}

}  // namespace spinner::pregel

#endif  // SPINNER_PREGEL_TOPOLOGY_H_
