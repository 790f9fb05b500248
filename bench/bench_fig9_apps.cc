// Reproduces paper FIGURE 9: runtime improvement of real analytics —
// Shortest Paths (SP/BFS), PageRank (PR), Weakly Connected Components (CC)
// — when Giraph places vertices by Spinner's partitioning instead of hash
// partitioning. LJ runs with 16 partitions, TU with 32, TW with 64
// (paper's setup), on the simulated cluster.
//
// Expected shape: positive improvement everywhere; Twitter (denser,
// harder) improves ~25-35%, LJ/TU up to ~50%.
#include <cstdio>
#include <vector>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/wcc.h"
#include "bench_util.h"
#include "simulator/cluster_simulator.h"
#include "spinner/partitioner.h"

namespace spinner::bench {
namespace {

struct AppResult {
  double sp_improvement;
  double pr_improvement;
  double cc_improvement;
};

double Improvement(double hash_seconds, double spinner_seconds) {
  return 100.0 * (hash_seconds - spinner_seconds) / hash_seconds;
}

AppResult RunGraph(const std::string& key, int k) {
  StandIn stand_in = MakeStandIn(key);
  CsrGraph g = Convert(stand_in.graph);
  PrintStandIn(stand_in, g);

  SpinnerConfig config;
  config.num_partitions = k;
  SpinnerPartitioner partitioner(config);
  auto partition = partitioner.Partition(g);
  SPINNER_CHECK(partition.ok());
  std::printf("  spinner: phi=%.3f rho=%.3f (k=%d)\n",
              partition->metrics.phi, partition->metrics.rho, k);

  auto hash_placement = pregel::HashPlacement(k);
  auto spinner_placement =
      pregel::LabelPlacement(partition->assignment, k);

  auto run_sp = [&](pregel::Placement placement) {
    apps::SsspProgram program(0);
    return sim::RunOnCluster<apps::SsspVertex, int64_t>(
               g, k, std::move(placement), program,
               [](VertexId) { return apps::SsspVertex{}; })
        .simulation.total_seconds;
  };
  auto run_pr = [&](pregel::Placement placement) {
    apps::PageRankProgram program(20);
    return sim::RunOnCluster<apps::PageRankVertex, double>(
               g, k, std::move(placement), program,
               [](VertexId) { return apps::PageRankVertex{}; })
        .simulation.total_seconds;
  };
  auto run_cc = [&](pregel::Placement placement) {
    apps::WccProgram program;
    return sim::RunOnCluster<apps::WccVertex, VertexId>(
               g, k, std::move(placement), program,
               [](VertexId) { return apps::WccVertex{}; })
        .simulation.total_seconds;
  };

  AppResult result;
  result.sp_improvement =
      Improvement(run_sp(hash_placement), run_sp(spinner_placement));
  result.pr_improvement =
      Improvement(run_pr(hash_placement), run_pr(spinner_placement));
  result.cc_improvement =
      Improvement(run_cc(hash_placement), run_cc(spinner_placement));
  return result;
}

void Run() {
  PrintBanner(
      "FIGURE 9 — application runtime improvement, Spinner vs hash "
      "placement",
      "positive improvement for SP/PR/CC on all graphs (paper: TW 25-35%, "
      "LJ/TU up to ~50%)");
  struct Setup {
    const char* key;
    int k;
  };
  const std::vector<Setup> setups = {{"LJ", 16}, {"TU", 32}, {"TW", 64}};

  std::vector<AppResult> results;
  for (const Setup& setup : setups) {
    results.push_back(RunGraph(setup.key, setup.k));
  }

  std::printf("\n%% runtime improvement (simulated cluster):\n");
  std::printf("%-6s %-8s %-8s %-8s\n", "graph", "SP", "PR", "CC");
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf("%-6s %-8.1f %-8.1f %-8.1f\n", setups[i].key,
                results[i].sp_improvement, results[i].pr_improvement,
                results[i].cc_improvement);
  }
  std::printf("\n(shape check: all entries positive)\n");
}

}  // namespace
}  // namespace spinner::bench

int main() {
  spinner::bench::Run();
  return 0;
}
