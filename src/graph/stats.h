// Descriptive statistics over a CSR graph, used by benches to document the
// stand-in datasets they generate (|V|, |E|, degree skew).
#ifndef SPINNER_GRAPH_STATS_H_
#define SPINNER_GRAPH_STATS_H_

#include <cstdint>
#include <string>

#include "graph/csr_graph.h"
#include "graph/sharded_store.h"

namespace spinner {

/// Summary of a graph's size and degree distribution.
struct GraphStats {
  int64_t num_vertices = 0;
  int64_t num_arcs = 0;
  int64_t total_arc_weight = 0;
  int64_t min_degree = 0;
  int64_t max_degree = 0;
  double mean_degree = 0.0;
  /// Degree of the 99th-percentile vertex — hubs show up here.
  int64_t p99_degree = 0;
};

/// Computes stats in one pass (plus a partial sort for the percentile).
GraphStats ComputeGraphStats(const CsrGraph& graph);

/// The same stats over the graph a ShardedGraphStore holds.
GraphStats ComputeGraphStats(const ShardedGraphStore& store);

/// One-line human-readable rendering.
std::string ToString(const GraphStats& stats);

}  // namespace spinner

#endif  // SPINNER_GRAPH_STATS_H_
