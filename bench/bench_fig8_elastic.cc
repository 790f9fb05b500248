// Reproduces paper FIGURE 8 (adapting to resource changes) and extends it
// into the closed-loop elasticity gauge.
//
// Part A — the paper's experiment: starting from the k=32 steady state on
// the Tuenti stand-in, add 1..8 partitions and compare elastic Rescale
// against re-partitioning from scratch on time/message savings and
// stability. Expected shapes: savings positive but shrinking as more
// partitions are added (paper: 74% faster for +1); vertices moved grows
// with the number of added partitions but stays far below scratch
// (paper: <17% vs 96% for +1).
//
// Part B — the policy sweep the paper stops short of: WHO calls Rescale?
// A synthetic growth trace (new vertices + hotspot edges + a mid-trace
// capacity grant) is replayed through the real IngestionService +
// ElasticController under each autoscaling policy, and the scorecards —
// φ trajectory, ρ violations, rescale count, modeled migration cost —
// are published to BENCH_fig8_elastic.json. Every scorecard field except
// wall time is deterministic (ManualClock + event-count windows), so CI
// hard-gates them via tools/bench_compare.py.
//
//   ./bench_fig8_elastic [--smoke] [--out=BENCH_fig8_elastic.json]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"

#include "bench_util.h"
#include "common/cli.h"
#include "simulator/cluster_simulator.h"
#include "spinner/session.h"

namespace spinner::bench {
namespace {

struct PolicyRow {
  std::string label;
  sim::PolicyReplayResult replay;
  double moved_pct = 0.0;
};

/// Part A: the paper's rescale-vs-scratch comparison.
void RunRescaleVsScratch(const StandIn& tu, int k,
                         const std::vector<int>& added_list,
                         const std::string& snapshot_path) {
  SpinnerConfig config;
  config.num_partitions = k;
  PartitioningSession session(config);
  SPINNER_CHECK_OK(session.Open(tu.graph.num_vertices, tu.graph.edges,
                                tu.graph.directed));
  PrintStandIn(tu, session.store());
  const std::vector<PartitionId> initial = session.assignment();
  std::printf("initial partitioning (k=%d): phi=%.3f rho=%.3f\n", k,
              session.last_result().metrics.phi,
              session.last_result().metrics.rho);
  SPINNER_CHECK_OK(session.Snapshot(snapshot_path));

  std::printf("\n%-6s | %-12s %-12s | %-12s %-12s | %-9s %-9s\n",
              "+parts", "time save%", "msg save%", "moved adpt%",
              "moved scr%", "rho adpt", "phi adpt");
  for (int added : added_list) {
    const int new_k = k + added;
    SPINNER_CHECK_OK(session.Restore(snapshot_path));
    SPINNER_CHECK_OK(session.Rescale(new_k));
    const PartitionResult& adapted = session.last_result();

    SpinnerConfig scratch_config = config;
    scratch_config.num_partitions = new_k;
    scratch_config.seed = 4242;
    PartitioningSession scratch_session(scratch_config);
    SPINNER_CHECK_OK(scratch_session.Open(
        tu.graph.num_vertices, tu.graph.edges, tu.graph.directed));
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

    std::printf("%-6d | %-12.1f %-12.1f | %-12.1f %-12.1f | %-9.3f %-9.3f\n",
                added, time_save, msg_save, 100.0 * *moved_adapted,
                100.0 * *moved_scratch, adapted.metrics.rho,
                adapted.metrics.phi);
  }
  std::printf("\n(shape check: moved-adaptive grows with +parts but stays "
              "well below moved-scratch; balance recovered at new k)\n");
  std::remove(snapshot_path.c_str());
}

/// Part-B substrate config (identical for every policy, so scorecards
/// differ only by what the policy decided).
SpinnerConfig LabConfig(int k) {
  SpinnerConfig config;
  config.num_partitions = k;
  return config;
}

}  // namespace
}  // namespace spinner::bench

int main(int argc, char** argv) {
  using namespace spinner;
  using namespace spinner::bench;

  const bool smoke = ConsumeSmokeFlag(&argc, argv);
  CommandLine cli;
  SPINNER_CHECK_OK(cli.Parse(argc, argv));
  const std::string out_path =
      cli.GetString("out", "BENCH_fig8_elastic.json");
  const std::string snapshot_path =
      "/tmp/spinner_bench_fig8." + std::to_string(getpid()) + ".spns";

  PrintBanner(
      "FIGURE 8 — adapting to resource changes, and the policies that "
      "decide to",
      "elastic adaptation cheaper and far more stable than scratch; "
      "closed-loop policies trade migration cost against quality");

  // --- Part A: rescale vs scratch (the paper's figure) -------------------
  if (smoke) {
    StandIn tiny{"TU", "WattsStrogatz(n=2k, deg=12, beta=0.2) [smoke]",
                 WattsStrogatz(2000, 6, 0.2, 42).value()};
    RunRescaleVsScratch(tiny, /*k=*/8, {1, 2}, snapshot_path);
  } else {
    RunRescaleVsScratch(MakeStandIn("TU"), /*k=*/32, {1, 2, 4, 8},
                        snapshot_path);
  }

  // --- Part B: the policy sweep ------------------------------------------
  std::printf("\n--- policy sweep: growth trace through the real "
              "IngestionService + ElasticController ---\n");
  const GeneratedGraph lab_graph =
      smoke ? WattsStrogatz(2000, 6, 0.3, 42).value()
            : MakeStandIn("LJ").graph;
  const int lab_k = smoke ? 8 : 16;

  sim::SyntheticTraceOptions trace_options;
  trace_options.num_vertices = lab_graph.num_vertices;
  trace_options.num_bursts = smoke ? 6 : 10;
  trace_options.events_per_burst = smoke ? 300 : 1200;
  trace_options.vertices_per_burst = smoke ? 100 : 400;
  trace_options.remove_fraction = 0.05;
  trace_options.hotspot_fraction = 0.30;
  trace_options.hotspot_span = 64;
  trace_options.seed = 9;
  trace_options.initial_capacity = lab_k + 2;
  trace_options.capacity_change_burst = trace_options.num_bursts / 2;
  trace_options.changed_capacity = lab_k + 8;
  const sim::LoadTrace trace = sim::SyntheticLoadTrace(trace_options);
  std::printf("trace: %d bursts, %lld events, capacity %d -> %d at burst "
              "%d%s\n",
              trace_options.num_bursts,
              static_cast<long long>(trace.num_events()),
              trace_options.initial_capacity,
              trace_options.changed_capacity,
              trace_options.capacity_change_burst,
              smoke ? "  [smoke sizes: numbers are not measurements]" : "");

  // The physical watermark (utilization = max_load / machine_capacity)
  // needs a machine size; derive it from the substrate's own steady state
  // so the trace's growth pushes the hottest machine past 100%.
  int64_t machine_capacity = 0;
  {
    PartitioningSession probe(LabConfig(lab_k));
    SPINNER_CHECK_OK(probe.Open(lab_graph.num_vertices, lab_graph.edges,
                                lab_graph.directed));
    for (int64_t load : probe.last_result().metrics.loads) {
      machine_capacity = std::max(machine_capacity, load);
    }
    machine_capacity = machine_capacity + machine_capacity / 20;  // +5%
  }

  struct Sweep {
    std::string label;
    std::string spec;
  };
  const std::vector<Sweep> sweeps = {
      {"none", "none"},
      {"watermark",
       StrFormat("watermark:high=1.0,low=0.5,machine-capacity=%lld",
                 static_cast<long long>(machine_capacity))},
      {"cut", "cut:budget=0.005,window=6"},
      {"watermark+hc",
       StrFormat("watermark:high=1.0,low=0.5,machine-capacity=%lld,"
                 "hysteresis=2,cooldown-ms=2500",
                 static_cast<long long>(machine_capacity))},
  };

  std::printf("\n%-14s | %-8s %-8s %-8s | %-8s %-8s %-8s | %-6s %-9s %-9s\n",
              "policy", "final k", "rescale", "windows", "phi end",
              "phi min", "rho max", "rho>c", "moved%", "migr s");
  std::vector<PolicyRow> rows;
  for (const Sweep& sweep : sweeps) {
    PartitioningSession session(LabConfig(lab_k));
    SPINNER_CHECK_OK(session.Open(lab_graph.num_vertices, lab_graph.edges,
                                  lab_graph.directed));
    sim::ReplayOptions replay_options;
    replay_options.policy_spec = sweep.spec;
    replay_options.events_per_window = smoke ? 150 : 400;
    auto replay = sim::ReplayTrace(&session, trace, replay_options);
    SPINNER_CHECK(replay.ok()) << sweep.spec << ": " << replay.status();

    PolicyRow row;
    row.label = sweep.label;
    row.replay = std::move(replay).value();
    row.moved_pct = session.num_vertices() > 0
                        ? 100.0 * static_cast<double>(
                                      row.replay.moved_vertices) /
                              static_cast<double>(session.num_vertices())
                        : 0.0;
    std::printf(
        "%-14s | %-8d %-8d %-8lld | %-8.3f %-8.3f %-8.3f | %-6d %-9.2f "
        "%-9.3f\n",
        row.label.c_str(), row.replay.final_k, row.replay.rescales,
        static_cast<long long>(row.replay.windows_applied),
        row.replay.final_phi, row.replay.min_phi, row.replay.max_rho,
        row.replay.rho_violations, row.moved_pct,
        row.replay.migration_seconds);
    rows.push_back(std::move(row));
  }
  std::printf("\n(shape check: 'none' holds k and degrades; active policies "
              "spend migration to hold quality; hysteresis+cooldown spends "
              "fewer rescales than the raw watermark)\n");

  // --- JSON gauge ---------------------------------------------------------
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  SPINNER_CHECK(json != nullptr) << "cannot write " << out_path;
  std::fprintf(json, "{\n  \"bench\": \"fig8_elastic\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json,
               "  \"substrate\": {\"vertices\": %lld, \"edges\": %zu, "
               "\"k\": %d},\n",
               static_cast<long long>(lab_graph.num_vertices),
               lab_graph.edges.size(), lab_k);
  std::fprintf(json,
               "  \"trace\": {\"bursts\": %d, \"events\": %lld, "
               "\"machine_capacity\": %lld},\n",
               trace_options.num_bursts,
               static_cast<long long>(trace.num_events()),
               static_cast<long long>(machine_capacity));
  std::fprintf(json, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& row = rows[i];
    const sim::PolicyReplayResult& r = row.replay;
    std::fprintf(
        json,
        "    {\"policy\": \"%s\", \"final_k\": %d, \"rescales\": %d, "
        "\"windows\": %lld, \"evaluations\": %d, \"phi_final\": %.4f, "
        "\"phi_min\": %.4f, \"phi_mean\": %.4f, \"rho_max\": %.4f, "
        "\"rho_violations\": %d, \"moved_pct\": %.2f, "
        "\"migration_seconds\": %.4f, \"replay_wall_seconds\": %.3f}%s\n",
        row.label.c_str(), r.final_k, r.rescales,
        static_cast<long long>(r.windows_applied), r.evaluations,
        r.final_phi, r.min_phi, r.mean_phi, r.max_rho, r.rho_violations,
        row.moved_pct, r.migration_seconds, r.replay_wall_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
