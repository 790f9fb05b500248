// Directed → weighted-undirected conversion (paper §III.A, Eq. 3).
//
// Spinner optimizes the number of messages crossing partitions. In Pregel,
// messages flow along directed edges, so a pair of reciprocal directed edges
// between u and v carries twice the traffic of a single edge. The conversion
// produces a symmetric graph whose arc weights count that traffic:
//   w(u,v) = 1 if exactly one of (u,v), (v,u) is in the directed graph,
//   w(u,v) = 2 if both are.
//
// The paper computes this in-engine (the NeighborPropagation and
// NeighborDiscovery supersteps, §IV.A.1); here it runs once, before label
// propagation, on every path that partitions a directed graph.
//
// Both functions below share one builder made of O(n + m) passes; it
// never sorts the edge list as a whole. A counting pass buckets each
// undirected pair {lo, hi} under lo as the key hi<<2 | direction bits, and
// each bucket is sorted and merged in place. The CSR is then written
// directly: row v holds its lower neighbours (filled in ascending order by
// a transpose pass over u < v) followed by its upper neighbours (its own
// merged bucket), so every row comes out sorted. Tests check the result
// arc for arc against a sort-based reference (docs/PERFORMANCE.md, "Graph
// setup: load and convert").
#ifndef SPINNER_GRAPH_CONVERSION_H_
#define SPINNER_GRAPH_CONVERSION_H_

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/types.h"

namespace spinner {

/// Converts a directed edge list into the symmetric weighted CSR form.
/// Self-loops and duplicate directed edges are dropped (a duplicate carries
/// no extra structural information for partitioning). Every undirected edge
/// appears as two arcs (u→v and v→u) of equal weight ∈ {1,2}.
Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges);

/// Builds the symmetric weight-1 CSR form of an undirected edge list (each
/// edge listed once). Self-loops and duplicates are dropped.
Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges);

}  // namespace spinner

#endif  // SPINNER_GRAPH_CONVERSION_H_
