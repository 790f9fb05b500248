// Reproduces paper FIGURE 7: adapting to dynamic graph changes on the
// Tuenti stand-in. For a growing percentage of new edges, compares
// incremental adaptation against re-partitioning from scratch on
//   (a) savings in processing time and messages, and
//   (b) partitioning stability (% vertices that must move).
//
// Driven end-to-end by PartitioningSession: the baseline state is captured
// once with Snapshot() and each percentage restores it and applies its
// delta — exactly the operational loop of a maintained partitioning.
//
// Expected shapes: (a) savings stay high (paper: 86% time / 92% messages
// at 0.5% new edges, still ~80% time at 30%); (b) adaptation moves ~8-11%
// of vertices, scratch ~95-98%.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/delta.h"
#include "spinner/session.h"

namespace spinner::bench {
namespace {

void Run() {
  // Per-process path: concurrent runs (or other users' leftovers) must
  // not collide on the checkpoint file.
  const std::string snapshot_path =
      "/tmp/spinner_bench_fig7." + std::to_string(getpid()) + ".spns";
  PrintBanner(
      "FIGURE 7 — adapting to dynamic graph changes (Tuenti stand-in)",
      "(a) incremental adaptation saves most time/messages vs scratch; "
      "(b) adaptation moves ~10% of vertices, scratch ~95%+");
  StandIn tu = MakeStandIn("TU");
  const int k = 32;

  SpinnerConfig config;
  config.num_partitions = k;
  PartitioningSession session(config);
  SPINNER_CHECK_OK(session.Open(tu.graph.num_vertices, tu.graph.edges,
                                tu.graph.directed));
  PrintStandIn(tu, session.store());
  const std::vector<PartitionId> initial = session.assignment();
  std::printf("initial partitioning: phi=%.3f rho=%.3f iterations=%d\n",
              session.last_result().metrics.phi,
              session.last_result().metrics.rho,
              session.last_result().iterations);
  SPINNER_CHECK_OK(session.Snapshot(snapshot_path));

  const std::vector<double> percentages = {0.01, 0.1, 0.5, 1, 2.5,
                                           5,    10,  30};
  std::printf("\n%-9s | %-12s %-12s | %-12s %-12s | %-8s %-8s\n",
              "% new", "time save%", "msg save%", "moved adpt%",
              "moved scr%", "phi adpt", "phi scr");
  for (double pct : percentages) {
    // Rewind to the day-0 state, then apply this percentage's churn.
    SPINNER_CHECK_OK(session.Restore(snapshot_path));
    const auto num_new = static_cast<int64_t>(
        static_cast<double>(session.num_edges()) * pct / 100.0);
    auto delta =
        RandomEdgeAdditions(session.num_vertices(), session.edges(),
                            std::max<int64_t>(1, num_new), 1234);
    SPINNER_CHECK_OK(session.ApplyDelta(delta));
    const PartitionResult& adapted = session.last_result();

    // A scratch re-partitioning is a fresh session on the changed graph
    // with a new seed.
    SpinnerConfig scratch_config = config;
    scratch_config.seed = 4242;
    PartitioningSession scratch_session(scratch_config);
    SPINNER_CHECK_OK(scratch_session.Open(
        session.num_vertices(), session.edges(), tu.graph.directed));
    const PartitionResult& scratch = scratch_session.last_result();

    const double time_save =
        100.0 * (1.0 - adapted.run_stats.total_wall_seconds /
                           scratch.run_stats.total_wall_seconds);
    const double msg_save =
        100.0 * (1.0 - static_cast<double>(
                           adapted.run_stats.TotalMessages()) /
                           static_cast<double>(
                               scratch.run_stats.TotalMessages()));
    auto moved_adapted =
        PartitioningDifference(initial, adapted.assignment);
    auto moved_scratch =
        PartitioningDifference(initial, scratch.assignment);
    SPINNER_CHECK(moved_adapted.ok() && moved_scratch.ok());

    std::printf("%-9.2f | %-12.1f %-12.1f | %-12.1f %-12.1f | %-8.3f %-8.3f\n",
                pct, time_save, msg_save, 100.0 * *moved_adapted,
                100.0 * *moved_scratch, adapted.metrics.phi,
                scratch.metrics.phi);
  }
  std::printf("\n(shape check: both savings columns positive and high; "
              "moved-adaptive far below moved-scratch; phi comparable)\n");
  std::remove(snapshot_path.c_str());
}

}  // namespace
}  // namespace spinner::bench

int main() {
  spinner::bench::Run();
  return 0;
}
