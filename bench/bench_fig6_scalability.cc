// Reproduces paper FIGURE 6 (google-benchmark): runtime of one LPA
// iteration (ComputeScores + ComputeMigrations, the most expensive and
// deterministic iteration) as a function of
//   (a) graph size        — Watts-Strogatz, deg 40, beta 0.3, k=64;
//   (b) number of workers — fixed graph, workers 1..hardware;
//   (c) number of partitions k — fixed graph, k 2..512;
//   (d) number of shards  — fixed graph, shard-parallel store, S 1..64;
//   (e) number of worker processes — fixed graph, the cross-process
//       execution mode (forked ShardWorkers + wire protocol), P 1..4 —
//       measuring what the per-superstep message passing costs relative
//       to the in-process substrate for the identical assignment.
//
// Expected shapes: (a) near-linear in |V| (loglog-linear in the paper);
// (b) runtime drops with added workers (paper: 7.6× speedup with 7.6×
// workers); (c) near-linear growth with k (per-vertex work and counter
// management are proportional to k); (d) like (b) up to the hardware
// thread count, then flat with mild oversharding overhead — shard count
// is a pure parallelism knob, the assignment is bit-identical for all S.
//
// Scale note: the paper runs 2M..1024M vertices on 115 machines; this
// harness runs 16k..256k vertices on one machine — the *trend* is the
// reproduction target. Pass --smoke (CI) to shrink sizes so the bench
// merely proves it executes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "spinner/partitioner.h"

namespace spinner::bench {
namespace {

/// Cached converted Watts-Strogatz graphs (paper §V.B setup, scaled).
const CsrGraph& CachedWsGraph(int64_t n) {
  static std::map<int64_t, std::unique_ptr<CsrGraph>>* cache =
      new std::map<int64_t, std::unique_ptr<CsrGraph>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto ws = WattsStrogatz(n, /*neighbors_per_side=*/20, 0.3, 42);
    SPINNER_CHECK(ws.ok());
    auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
    SPINNER_CHECK(converted.ok());
    it = cache
             ->emplace(n, std::make_unique<CsrGraph>(
                               std::move(converted).value()))
             .first;
  }
  return *it->second;
}

/// Runs two LPA iterations and returns the wall time of the first full
/// iteration (supersteps 1 and 2: the first ComputeScores and
/// ComputeMigrations after Initialize). `shards` (else `workers`) is the
/// store's shard count (0 = auto); `processes` > 0 runs that many forked
/// worker processes.
double FirstIterationSeconds(const CsrGraph& g, int k, int workers,
                             int shards = 0, int processes = 0) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.execution.num_shards = shards > 0 ? shards : workers;
  if (processes > 0) {
    config.execution.mode = ExecutionMode::kMultiProcess;
    config.execution.num_workers = processes;
  }
  config.max_iterations = 2;
  config.use_halting = false;
  config.record_history = false;
  SpinnerPartitioner partitioner(config);
  auto result = partitioner.Partition(g);
  SPINNER_CHECK(result.ok());
  const auto& steps = result->run_stats.per_superstep;
  SPINNER_CHECK(steps.size() >= 3);
  return steps[1].wall_seconds + steps[2].wall_seconds;
}

void BM_IterationTime_GraphSize(benchmark::State& state) {
  const int64_t n = state.range(0);
  const CsrGraph& g = CachedWsGraph(n);
  for (auto _ : state) {
    state.SetIterationTime(FirstIterationSeconds(g, 64, 0));
  }
  state.counters["vertices"] = static_cast<double>(n);
  state.counters["arcs"] = static_cast<double>(g.NumArcs());
}

void BM_IterationTime_Workers(benchmark::State& state, int64_t n) {
  const int workers = static_cast<int>(state.range(0));
  const CsrGraph& g = CachedWsGraph(n);
  for (auto _ : state) {
    state.SetIterationTime(FirstIterationSeconds(g, 64, workers));
  }
  state.counters["workers"] = workers;
}

void BM_IterationTime_Partitions(benchmark::State& state, int64_t n) {
  const int k = static_cast<int>(state.range(0));
  const CsrGraph& g = CachedWsGraph(n);
  for (auto _ : state) {
    state.SetIterationTime(FirstIterationSeconds(g, k, 0));
  }
  state.counters["k"] = k;
}

void BM_IterationTime_Shards(benchmark::State& state, int64_t n) {
  const int shards = static_cast<int>(state.range(0));
  const CsrGraph& g = CachedWsGraph(n);
  for (auto _ : state) {
    state.SetIterationTime(
        FirstIterationSeconds(g, 64, /*workers=*/0, shards));
  }
  state.counters["shards"] = shards;
}

void BM_IterationTime_Processes(benchmark::State& state, int64_t n) {
  const int processes = static_cast<int>(state.range(0));
  const CsrGraph& g = CachedWsGraph(n);
  for (auto _ : state) {
    state.SetIterationTime(FirstIterationSeconds(
        g, 64, /*workers=*/0, /*shards=*/0, processes));
  }
  state.counters["processes"] = processes;
}

/// Smoke-mode wire report: runs the cross-process mode over the fixed
/// graph and prints the coordinator's wire counters — total and
/// per-superstep bytes — so the CI bench artifact tracks the
/// O(V·workers) → O(boundary) label-traffic trajectory across PRs.
void PrintWireReport(int64_t n) {
  const CsrGraph& g = CachedWsGraph(n);
  for (const int processes : {1, 2}) {
    SpinnerConfig config;
    config.num_partitions = 64;
    config.execution.mode = ExecutionMode::kMultiProcess;
    config.execution.num_workers = processes;
    // Pin the shard count so the reported boundary sizes and byte counts
    // are comparable across runners (auto-resolution follows the host's
    // core count).
    config.execution.num_shards = 8;
    config.max_iterations = 3;
    config.use_halting = false;
    config.record_history = false;
    SpinnerPartitioner partitioner(config);
    auto result = partitioner.Partition(g);
    SPINNER_CHECK(result.ok());
    const WireTraffic& wire = result->wire;
    std::printf(
        "wire_traffic processes=%d vertices=%lld bytes_sent=%lld "
        "bytes_received=%lld frames_sent=%lld chunked_messages=%lld "
        "subscribed_vertices=%lld label_values_sent=%lld "
        "delta_entries_sent=%lld\n",
        processes, static_cast<long long>(n),
        static_cast<long long>(wire.bytes_sent),
        static_cast<long long>(wire.bytes_received),
        static_cast<long long>(wire.frames_sent),
        static_cast<long long>(wire.chunked_messages),
        static_cast<long long>(wire.subscribed_vertices),
        static_cast<long long>(wire.label_values_sent),
        static_cast<long long>(wire.delta_entries_sent));
    for (size_t step = 0; step < wire.per_superstep_bytes.size(); ++step) {
      std::printf("wire_superstep processes=%d step=%zu bytes=%lld\n",
                  processes, step,
                  static_cast<long long>(wire.per_superstep_bytes[step]));
    }
  }
}

void RegisterAll(bool smoke) {
  // Smoke mode shrinks everything so CI executes every curve in seconds.
  const int64_t n_min = smoke ? 2048 : 16384;
  const int64_t n_max = smoke ? 8192 : 262144;
  const int64_t n_fixed = smoke ? 8192 : 131072;
  const int64_t k_max = smoke ? 32 : 512;
  const int64_t shards_max = smoke ? 8 : 64;
  const int64_t workers_max = smoke ? 4 : 16;

  benchmark::RegisterBenchmark("BM_IterationTime_GraphSize",
                               BM_IterationTime_GraphSize)
      ->RangeMultiplier(2)
      ->Range(n_min, n_max)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(smoke ? 1 : 3);
  benchmark::RegisterBenchmark(
      "BM_IterationTime_Workers",
      [n_fixed](benchmark::State& s) { BM_IterationTime_Workers(s, n_fixed); })
      ->RangeMultiplier(2)
      ->Range(1, workers_max)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(smoke ? 1 : 3);
  benchmark::RegisterBenchmark(
      "BM_IterationTime_Partitions",
      [n_fixed](benchmark::State& s) {
        BM_IterationTime_Partitions(s, n_fixed);
      })
      ->RangeMultiplier(4)
      ->Range(2, k_max)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(smoke ? 1 : 3);
  benchmark::RegisterBenchmark(
      "BM_IterationTime_Shards",
      [n_fixed](benchmark::State& s) { BM_IterationTime_Shards(s, n_fixed); })
      ->RangeMultiplier(2)
      ->Range(1, shards_max)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(smoke ? 1 : 3);
  benchmark::RegisterBenchmark(
      "BM_IterationTime_Processes",
      [n_fixed](benchmark::State& s) {
        BM_IterationTime_Processes(s, n_fixed);
      })
      ->RangeMultiplier(2)
      ->Range(1, smoke ? 2 : 4)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(smoke ? 1 : 3);
}

}  // namespace
}  // namespace spinner::bench

int main(int argc, char** argv) {
  const bool smoke = spinner::bench::ConsumeSmokeFlag(&argc, argv);
  spinner::bench::RegisterAll(smoke);
  // Publish the google-benchmark JSON artifact by default — CI archives
  // BENCH_*.json and this bench used to print to the console only. An
  // explicit --benchmark_out on the command line wins.
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_fig6_scalability.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  args.push_back(nullptr);
  int args_count = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The wire report rides the smoke artifact so the perf trajectory
  // includes per-superstep wire bytes, not just wall times.
  if (smoke) spinner::bench::PrintWireReport(/*n=*/8192);
  return 0;
}
