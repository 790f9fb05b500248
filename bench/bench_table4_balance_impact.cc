// Reproduces paper TABLE IV: the impact of partitioning balance on worker
// load while running 20 PageRank supersteps on the hub-heavy Twitter
// stand-in — random (hash) placement vs Spinner placement, on the
// simulated cluster.
//
// Expected shape: with Spinner placement both the mean and especially the
// max (slowest worker, the superstep duration in a synchronous engine)
// drop, and the idle fraction (1 − mean/max) shrinks — paper: idle 31%
// (random) vs 19% (Spinner), mean 5.8s→4.7s, max 8.4s→5.8s.
#include <cstdio>

#include "apps/pagerank.h"
#include "bench_util.h"
#include "simulator/cluster_simulator.h"
#include "spinner/partitioner.h"

namespace spinner::bench {
namespace {

struct Outcome {
  double mean;
  double mean_sd;
  double max;
  double max_sd;
  double min;
  double min_sd;
  double idle_pct;
};

Outcome Summarize(const sim::SimulationResult& simulation) {
  Outcome o;
  o.mean = simulation.mean_stats.Mean();
  o.mean_sd = simulation.mean_stats.StdDev();
  o.max = simulation.max_stats.Mean();
  o.max_sd = simulation.max_stats.StdDev();
  o.min = simulation.min_stats.Mean();
  o.min_sd = simulation.min_stats.StdDev();
  o.idle_pct = o.max == 0 ? 0 : 100.0 * (1.0 - o.mean / o.max);
  return o;
}

void Run() {
  PrintBanner(
      "TABLE IV — impact of partitioning balance on worker load (PageRank, "
      "Twitter stand-in)",
      "Spinner placement lowers mean and max superstep time and shrinks "
      "worker idling (paper: idle 31% -> 19%)");
  StandIn tw = MakeStandIn("TW+hubs");
  CsrGraph g = Convert(tw.graph);
  PrintStandIn(tw, g);
  const int workers = 32;  // paper: 256 workers / 256 partitions

  SpinnerConfig config;
  config.num_partitions = workers;
  SpinnerPartitioner partitioner(config);
  auto partition = partitioner.Partition(g);
  SPINNER_CHECK(partition.ok());
  std::printf("spinner partitioning: phi=%.3f rho=%.3f\n",
              partition->metrics.phi, partition->metrics.rho);

  auto run_placement = [&](pregel::Placement placement) {
    apps::PageRankProgram program(20);
    return sim::RunOnCluster<apps::PageRankVertex, double>(
        g, workers, std::move(placement), program,
        [](VertexId) { return apps::PageRankVertex{}; });
  };

  auto random_run = run_placement(pregel::HashPlacement(workers));
  auto spinner_run =
      run_placement(pregel::LabelPlacement(partition->assignment, workers));

  const Outcome random = Summarize(random_run.simulation);
  const Outcome spinner = Summarize(spinner_run.simulation);

  std::printf("\nSimulated per-superstep worker time (ms), 20 PageRank "
              "supersteps, %d workers:\n", workers);
  std::printf("%-10s %-18s %-18s %-18s %-8s\n", "Approach", "Mean",
              "Max.", "Min.", "idle%");
  std::printf("%-10s %7.2f +/- %-6.2f %7.2f +/- %-6.2f %7.2f +/- %-6.2f %-8.1f\n",
              "Random", random.mean * 1e3, random.mean_sd * 1e3,
              random.max * 1e3, random.max_sd * 1e3, random.min * 1e3,
              random.min_sd * 1e3, random.idle_pct);
  std::printf("%-10s %7.2f +/- %-6.2f %7.2f +/- %-6.2f %7.2f +/- %-6.2f %-8.1f\n",
              "Spinner", spinner.mean * 1e3, spinner.mean_sd * 1e3,
              spinner.max * 1e3, spinner.max_sd * 1e3, spinner.min * 1e3,
              spinner.min_sd * 1e3, spinner.idle_pct);
  std::printf("\nremote messages: random=%lld spinner=%lld (%.1fx fewer)\n",
              static_cast<long long>(random_run.simulation.remote_messages),
              static_cast<long long>(
                  spinner_run.simulation.remote_messages),
              static_cast<double>(random_run.simulation.remote_messages) /
                  static_cast<double>(
                      std::max<int64_t>(1,
                          spinner_run.simulation.remote_messages)));
  std::printf("(paper Table IV: Random 5.8/8.4/3.4 s, Spinner 4.7/5.8/3.1 "
              "s; idling 31%% vs 19%%)\n");
}

}  // namespace
}  // namespace spinner::bench

int main() {
  spinner::bench::Run();
  return 0;
}
