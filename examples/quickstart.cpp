// Quickstart: partition a graph with Spinner in ~20 lines.
//
// The idiom: open a PartitioningSession on a raw edge list. The session
// converts (paper Eq. 3), partitions, and then *owns* the assignment — as
// the graph changes call session.ApplyDelta(), as the cluster resizes call
// session.Rescale(), and session.Snapshot() persists the whole state. For
// a one-shot sweep of any other algorithm ("hash", "ldg", "fennel", ...)
// see PartitionerRegistry::Create in baselines/partitioner_registry.h.
//
//   ./quickstart [--k=8] [--c=1.05] [--seed=42] [--input=edges.txt]
//                [--output=partition.txt]
//
// Without --input, a small-world demo graph is generated. With --input,
// reads a "src dst" edge list (directed; converted per paper Eq. 3).
#include <cstdio>

#include "common/cli.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "spinner/session.h"

using namespace spinner;

int main(int argc, char** argv) {
  CommandLine cli;
  SPINNER_CHECK_OK(cli.Parse(argc, argv));

  // --- 1. Load or generate a graph. ---
  EdgeList edges;
  int64_t num_vertices = 0;
  bool directed = true;
  const std::string input = cli.GetString("input", "");
  if (!input.empty()) {
    auto loaded = graph_io::ReadEdgeList(input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    edges = std::move(loaded).value();
    num_vertices = MaxVertexId(edges) + 1;
  } else {
    auto demo = WattsStrogatz(5000, 5, 0.25, cli.GetInt("seed", 42));
    SPINNER_CHECK_OK(demo.status());
    edges = demo->edges;
    num_vertices = demo->num_vertices;
    directed = demo->directed;
    std::printf("no --input given; generated a small-world demo graph\n");
  }

  // --- 2. Configure and open a partitioning session. The session
  //        converts to the weighted undirected form (paper Eq. 3) and
  //        computes the initial partitioning. ---
  SpinnerConfig config;
  config.num_partitions = static_cast<int>(cli.GetInt("k", 8));
  config.additional_capacity = cli.GetDouble("c", 1.05);
  config.seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  PartitioningSession session(config);
  Status opened = session.Open(num_vertices, std::move(edges), directed);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.ToString().c_str());
    return 1;
  }
  std::printf("graph: %s\n",
              ToString(ComputeGraphStats(session.store())).c_str());

  // --- 3. Inspect the result. ---
  const PartitionResult& result = session.last_result();
  std::printf("partitioned into k=%d in %d iterations (%s)\n",
              session.num_partitions(), result.iterations,
              result.converged ? "converged" : "iteration cap");
  std::printf("locality phi = %.3f (fraction of message traffic kept "
              "local)\n", result.metrics.phi);
  std::printf("balance  rho = %.3f (max load / ideal; target <= c = %.2f)\n",
              result.metrics.rho, config.additional_capacity);
  for (size_t l = 0; l < result.metrics.loads.size(); ++l) {
    std::printf("  partition %zu: load %lld\n", l,
                static_cast<long long>(result.metrics.loads[l]));
  }

  // --- 4. Persist the assignment (the session itself can also be
  //        checkpointed with session.Snapshot(path)). ---
  const std::string output = cli.GetString("output", "partition.txt");
  SPINNER_CHECK_OK(graph_io::WritePartitioning(output, session.assignment()));
  std::printf("assignment written to %s\n", output.c_str());
  return 0;
}
