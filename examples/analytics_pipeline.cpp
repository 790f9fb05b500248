// Analytics pipeline (paper §V.F scenario): partition a hub-heavy social
// graph with Spinner, hand the assignment to the processing engine as its
// vertex placement, and run the paper's three analytics — shortest paths,
// PageRank, connected components — comparing simulated cluster runtime
// against default hash placement.
//
//   ./analytics_pipeline [--workers=16]
#include <cstdio>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/wcc.h"
#include "common/cli.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "simulator/cluster_simulator.h"
#include "spinner/partitioner.h"

using namespace spinner;

int main(int argc, char** argv) {
  CommandLine cli;
  SPINNER_CHECK_OK(cli.Parse(argc, argv));
  const int workers = static_cast<int>(cli.GetInt("workers", 16));

  auto social = BarabasiAlbert(15000, 6, 6, 11);
  SPINNER_CHECK_OK(social.status());
  auto g = BuildSymmetric(social->num_vertices, social->edges);
  SPINNER_CHECK_OK(g.status());

  // Step 1: compute the partitioning (one partition per worker).
  SpinnerConfig config;
  config.num_partitions = workers;
  SpinnerPartitioner partitioner(config);
  auto partition = partitioner.Partition(*g);
  SPINNER_CHECK_OK(partition.status());
  std::printf("spinner partitioning: phi=%.3f rho=%.3f (%d iterations)\n\n",
              partition->metrics.phi, partition->metrics.rho,
              partition->iterations);

  auto hash = pregel::HashPlacement(workers);
  auto by_label = pregel::LabelPlacement(partition->assignment, workers);

  // Step 2: run each analytic under both placements on the simulated
  // cluster and report the speedup.
  std::printf("%-22s %-14s %-14s %-10s\n", "application",
              "hash (ms)", "spinner (ms)", "speedup");

  auto report = [](const char* name, double hash_s, double spinner_s) {
    std::printf("%-22s %-14.2f %-14.2f %.2fx\n", name, hash_s * 1e3,
                spinner_s * 1e3, hash_s / spinner_s);
  };

  {
    apps::SsspProgram h_prog(0);
    apps::SsspProgram s_prog(0);
    auto h = sim::RunOnCluster<apps::SsspVertex, int64_t>(
        *g, workers, hash, h_prog,
        [](VertexId) { return apps::SsspVertex{}; });
    auto s = sim::RunOnCluster<apps::SsspVertex, int64_t>(
        *g, workers, by_label, s_prog,
        [](VertexId) { return apps::SsspVertex{}; });
    report("shortest paths (BFS)", h.simulation.total_seconds,
           s.simulation.total_seconds);
  }
  {
    apps::PageRankProgram h_prog(20);
    apps::PageRankProgram s_prog(20);
    auto h = sim::RunOnCluster<apps::PageRankVertex, double>(
        *g, workers, hash, h_prog,
        [](VertexId) { return apps::PageRankVertex{}; });
    auto s = sim::RunOnCluster<apps::PageRankVertex, double>(
        *g, workers, by_label, s_prog,
        [](VertexId) { return apps::PageRankVertex{}; });
    report("pagerank (20 iters)", h.simulation.total_seconds,
           s.simulation.total_seconds);
    std::printf("  remote messages: %lld -> %lld\n",
                static_cast<long long>(h.simulation.remote_messages),
                static_cast<long long>(s.simulation.remote_messages));
  }
  {
    apps::WccProgram h_prog;
    apps::WccProgram s_prog;
    auto h = sim::RunOnCluster<apps::WccVertex, VertexId>(
        *g, workers, hash, h_prog,
        [](VertexId) { return apps::WccVertex{}; });
    auto s = sim::RunOnCluster<apps::WccVertex, VertexId>(
        *g, workers, by_label, s_prog,
        [](VertexId) { return apps::WccVertex{}; });
    report("connected components", h.simulation.total_seconds,
           s.simulation.total_seconds);
  }

  std::printf("\nplacement is the only thing that changed — results are "
              "identical, the network traffic is not.\n");
  return 0;
}
