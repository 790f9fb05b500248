// Superstep-kernel microbenchmark: the seed scalar ComputeScores /
// ComputeMigrations loop (embedded verbatim below as `namespace seed`)
// against the current kernel — hoisted penalty/probability tables, the
// O(moves) async-view restore, the presence-bitmap label gather and bit
// walk — and against the full work-stealing run. Three topology classes
// vary the degree skew: uniform small-world, power-law hubs, and
// power-law with a celebrity overlay. Each runs at the sweep's k, at
// k = 32 and at k = 128, where the bitmap spans two words.
//
// The JSON artifact's hot metric is the *within-run* speedup ratio
// (seed ms / new ms on the same machine, same graph, same iteration
// count, as the median of per-sample ratios), which tools/bench_compare.py
// gates: unlike wall-times, the ratio is comparable across machines of
// different speeds. The *_ms_per_iter fields are median sample means.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/threadpool.h"
#include "graph/sharded_store.h"
#include "spinner/config.h"
#include "spinner/lpa_kernel.h"
#include "spinner/shard_superstep.h"
#include "spinner/sharded_program.h"

namespace spinner::bench {
namespace seed {

// --- The growth seed's kernel, kept verbatim as the baseline ------------
// (git history: src/spinner/lpa_kernel.h + shard_superstep.cc at the v0
// seed commit). Two divisions per scored label, a reservoir tie draw per
// tied label, and a full k-sized copy of the global loads at every block
// boundary of the asynchronous view.

inline double ScoreTerm(int64_t freq, double weighted_degree, int64_t load,
                        double capacity) {
  const double locality = static_cast<double>(freq) / weighted_degree;
  const double penalty =
      capacity > 0 ? static_cast<double>(load) / capacity : 0.0;
  return locality - penalty;
}

inline lpa::LabelChoice PickLabel(std::span<const int64_t> freq,
                                  std::span<const PartitionId> touched,
                                  PartitionId current, double weighted_degree,
                                  std::span<const double> capacities,
                                  std::span<const int64_t> penalty_loads,
                                  uint64_t rng_seed, int64_t superstep,
                                  VertexId v) {
  auto score_of = [&](PartitionId l) {
    return ScoreTerm(freq[l], weighted_degree, penalty_loads[l],
                     capacities[l]);
  };
  const double current_score = score_of(current);
  double best_score = current_score;
  bool current_is_best = true;
  int num_best = 0;
  PartitionId chosen = current;
  for (const PartitionId l : touched) {
    if (l == current) continue;
    const double s = score_of(l);
    if (s > best_score) {
      best_score = s;
      current_is_best = false;
      num_best = 1;
      chosen = l;
    } else if (!current_is_best && s == best_score) {
      ++num_best;
      const uint64_t key = HashCombine(
          HashCombine(rng_seed, lpa::kTieDomain, static_cast<uint64_t>(v)),
          static_cast<uint64_t>(superstep), static_cast<uint64_t>(l));
      if (HashUniform(key, static_cast<uint64_t>(num_best)) == 0) {
        chosen = l;
      }
    }
  }
  return lpa::LabelChoice{chosen, !current_is_best};
}

struct Scratch {
  std::vector<int64_t> freq;
  std::vector<PartitionId> touched;
  std::vector<int64_t> projected;
  std::vector<int64_t> migrations;
  int64_t local_weight = 0;
  int64_t migrated = 0;

  void Prepare(int k) {
    freq.assign(static_cast<size_t>(k), 0);
    touched.clear();
    touched.reserve(static_cast<size_t>(k));
    projected.assign(static_cast<size_t>(k), 0);
    migrations.assign(static_cast<size_t>(k), 0);
  }
};

void ComputeScores(const SpinnerConfig& config,
                   const ShardedGraphStore::Shard& shard,
                   std::span<const PartitionId> labels,
                   const std::vector<int64_t>& global_loads,
                   const std::vector<double>& capacities, int64_t superstep,
                   std::span<PartitionId> candidate, Scratch* scratch) {
  constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;
  Scratch& sc = *scratch;
  sc.local_weight = 0;
  std::fill(sc.migrations.begin(), sc.migrations.end(), 0);
  for (VertexId block_begin = shard.begin; block_begin < shard.end;
       block_begin += kBlock) {
    const VertexId block_end =
        std::min<VertexId>(block_begin + kBlock, shard.end);
    if (config.per_worker_async) sc.projected = global_loads;
    const std::vector<int64_t>& penalty =
        config.per_worker_async ? sc.projected : global_loads;
    for (VertexId v = block_begin; v < block_end; ++v) {
      const int64_t deg_w = shard.WeightedDegreeOf(v);
      if (deg_w == 0) {
        candidate[v] = kNoPartition;
        continue;
      }
      const auto neighbors = shard.Neighbors(v);
      const auto weights = shard.WeightsOf(v);
      for (size_t j = 0; j < neighbors.size(); ++j) {
        const PartitionId l = labels[neighbors[j]];
        if (sc.freq[l] == 0) sc.touched.push_back(l);
        sc.freq[l] += weights[j];
      }
      const PartitionId current = labels[v];
      const double deg = static_cast<double>(deg_w);
      const lpa::LabelChoice choice =
          PickLabel(sc.freq, sc.touched, current, deg, capacities, penalty,
                    config.seed, superstep, v);
      sc.local_weight += sc.freq[current];
      if (choice.better) {
        candidate[v] = choice.label;
        const int64_t units = LoadUnitsOf(config, deg_w);
        sc.migrations[choice.label] += units;
        if (config.per_worker_async) {
          sc.projected[choice.label] += units;
          sc.projected[current] -= units;
        }
      } else {
        candidate[v] = kNoPartition;
      }
      for (const PartitionId l : sc.touched) sc.freq[l] = 0;
      sc.touched.clear();
    }
  }
}

void ComputeMigrations(const SpinnerConfig& config,
                       ShardedGraphStore::Shard* shard,
                       std::span<PartitionId> labels,
                       const std::vector<int64_t>& global_loads,
                       const std::vector<double>& capacities,
                       const std::vector<int64_t>& migration_counts,
                       int64_t superstep,
                       std::span<const PartitionId> candidate,
                       Scratch* scratch) {
  Scratch& sc = *scratch;
  sc.migrated = 0;
  for (VertexId v = shard->begin; v < shard->end; ++v) {
    const PartitionId target = candidate[v];
    if (target == kNoPartition) continue;
    const double remaining =
        capacities[target] - static_cast<double>(global_loads[target]);
    const double wanting = static_cast<double>(migration_counts[target]);
    const double p = lpa::MigrationProbability(remaining, wanting);
    if (!lpa::MigrationCoinAccepts(config.seed, v, superstep, p)) continue;
    const PartitionId old_label = labels[v];
    const int64_t units = LoadUnitsOf(config, shard->WeightedDegreeOf(v));
    labels[v] = target;
    shard->loads[target] += units;
    shard->loads[old_label] -= units;
    ++sc.migrated;
  }
}

}  // namespace seed

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Timing discipline: a sample replays a path until it has lasted
/// kMinSampleMs and keeps the mean, so one scheduler hiccup cannot decide
/// a ~1 ms smoke replay. Each path is sampled kSamples times, the paths'
/// samples interleaving, so drift on a shared host hits every path alike.
constexpr int kSamples = 7;
constexpr double kMinSampleMs = 20.0;

/// Samples each path — a call that runs one replay and returns its timed
/// ms per iteration — under the discipline above: result[i][s] is path
/// i's mean in sample s. The first call of each path warms it up and
/// sizes its sample.
std::vector<std::vector<double>> SampleMeans(
    const std::vector<std::function<double()>>& paths,
    int iters_per_replay) {
  std::vector<int> replays;
  for (const auto& path : paths) {
    const double replay_ms = path() * iters_per_replay;
    replays.push_back(std::max(
        1, static_cast<int>(std::ceil(kMinSampleMs /
                                      std::max(replay_ms, 1e-3)))));
  }
  std::vector<std::vector<double>> means(paths.size());
  for (int sample = 0; sample < kSamples; ++sample) {
    for (size_t i = 0; i < paths.size(); ++i) {
      double total = 0.0;
      for (int r = 0; r < replays[i]; ++r) total += paths[i]();
      means[i].push_back(total / replays[i]);
    }
  }
  return means;
}

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// The median over samples of base[s] / path[s]: a speedup measured
/// within each sample, so host drift slower than a sample cancels.
double MedianRatio(const std::vector<double>& base,
                   const std::vector<double>& path) {
  std::vector<double> ratios;
  for (size_t s = 0; s < base.size(); ++s) ratios.push_back(base[s] / path[s]);
  return Median(std::move(ratios));
}

/// Eq. 5 capacities, as the superstep driver computes them.
std::vector<double> CapacitiesOf(const SpinnerConfig& config,
                                 const std::vector<int64_t>& loads) {
  int64_t total = 0;
  for (const int64_t l : loads) total += l;
  return std::vector<double>(
      static_cast<size_t>(config.num_partitions),
      config.additional_capacity * static_cast<double>(total) /
          static_cast<double>(config.num_partitions));
}

struct CaseResult {
  std::string name;
  std::string recipe;
  int k = 0;
  int64_t vertices = 0;
  int64_t arcs = 0;
  double seed_ms = 0.0;       // seed kernel, ms per iteration
  double kernel_ms = 0.0;     // new kernel, single-thread, ms per iteration
  double stealing_ms = 0.0;   // full stealing run, ms per iteration
  double kernel_speedup = 0.0;
  double stealing_speedup = 0.0;
  int64_t tasks = 0;
  int64_t stolen_tasks = 0;
};

/// One iteration-loop harness shared by both single-thread paths: copies
/// the post-Initialize snapshot, then runs `iters` score+migrate rounds
/// with the driver's frozen-loads masterwork in between.
template <typename ScoresFn, typename MigrateFn>
double TimeIterations(const SpinnerConfig& config, ShardedGraphStore* store,
                      const std::vector<PartitionId>& labels0,
                      const std::vector<int64_t>& loads0, int iters,
                      ScoresFn&& scores, MigrateFn&& migrate) {
  ShardedGraphStore::Shard* shard = &store->mutable_shard(0);
  store->labels() = labels0;
  shard->loads = loads0;
  const std::vector<double> capacities = CapacitiesOf(config, loads0);
  std::vector<PartitionId> candidate(labels0.size(), kNoPartition);
  const Clock::time_point t0 = Clock::now();
  for (int it = 0; it < iters; ++it) {
    const std::vector<int64_t> global_loads = shard->loads;  // frozen b(l)
    const std::vector<int64_t> migration_counts =
        scores(*shard, global_loads, capacities, 2 * it + 1, candidate);
    migrate(shard, global_loads, capacities, migration_counts, 2 * it + 2,
            candidate);
  }
  return MsSince(t0) / iters;
}

CaseResult RunCase(const std::string& name, const std::string& recipe,
                   GeneratedGraph graph, const SpinnerConfig& config,
                   int iters, int stealing_shards) {
  CaseResult result;
  result.name = name;
  result.recipe = recipe;
  result.k = config.num_partitions;
  auto converted = BuildSymmetric(graph.num_vertices, graph.edges);
  SPINNER_CHECK(converted.ok());
  const CsrGraph& g = *converted;
  result.vertices = g.NumVertices();
  result.arcs = g.NumArcs();

  // Single-shard store: one Initialize fixes the starting labels/loads
  // both kernels replay from, so they do identical per-iteration work.
  auto store = ShardedGraphStore::Build(g, 1);
  SPINNER_CHECK(store.ok());
  {
    ShardScratch init_scratch;
    init_scratch.Prepare(config.num_partitions);
    ShardInitialize(config, &store->mutable_shard(0), store->labels(), {});
  }
  const std::vector<PartitionId> labels0 = store->labels();
  const std::vector<int64_t> loads0 = store->shard(0).loads;

  seed::Scratch seed_scratch;
  seed_scratch.Prepare(config.num_partitions);
  auto seed_scores = [&](const ShardedGraphStore::Shard& shard,
                         const std::vector<int64_t>& global_loads,
                         const std::vector<double>& capacities, int64_t step,
                         std::span<PartitionId> candidate) {
    seed::ComputeScores(config, shard, store->labels(), global_loads,
                        capacities, step, candidate, &seed_scratch);
    return seed_scratch.migrations;
  };
  auto seed_migrate = [&](ShardedGraphStore::Shard* shard,
                          const std::vector<int64_t>& global_loads,
                          const std::vector<double>& capacities,
                          const std::vector<int64_t>& migration_counts,
                          int64_t step, std::span<PartitionId> candidate) {
    seed::ComputeMigrations(config, shard, store->labels(), global_loads,
                            capacities, migration_counts, step, candidate,
                            &seed_scratch);
  };

  ShardScratch kernel_scratch;
  kernel_scratch.Prepare(config.num_partitions);
  std::vector<double> block_score(static_cast<size_t>(store->NumBlocks()));
  std::vector<int32_t> block_candidates(
      static_cast<size_t>(store->NumBlocks()));
  auto kernel_scores = [&](const ShardedGraphStore::Shard& shard,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           int64_t step, std::span<PartitionId> candidate) {
    ShardComputeScores(config, shard, store->labels(), global_loads,
                       capacities, step, candidate, block_score,
                       block_candidates, &kernel_scratch);
    return kernel_scratch.migrations;
  };
  auto kernel_migrate = [&](ShardedGraphStore::Shard* shard,
                            const std::vector<int64_t>& global_loads,
                            const std::vector<double>& capacities,
                            const std::vector<int64_t>& migration_counts,
                            int64_t step,
                            std::span<PartitionId> candidate) {
    ShardComputeMigrations(config, shard, store->labels(), global_loads,
                           capacities, migration_counts, step, candidate,
                           block_candidates, nullptr, &kernel_scratch);
  };

  // Every replay starts from the identical snapshot. The stealing path is
  // the full run: same graph and iteration count, shards dealt out
  // block-by-block to a hardware-sized pool, on a store built untimed.
  SpinnerConfig run_config = config;
  run_config.max_iterations = iters;
  run_config.use_halting = false;
  run_config.record_history = false;
  ThreadPool pool(ResolveNumThreads(run_config));
  const auto seed_replay = [&] {
    return TimeIterations(config, &*store, labels0, loads0, iters,
                          seed_scores, seed_migrate);
  };
  const auto kernel_replay = [&] {
    return TimeIterations(config, &*store, labels0, loads0, iters,
                          kernel_scores, kernel_migrate);
  };
  const auto stealing_replay = [&] {
    auto steal_store = ShardedGraphStore::Build(g, stealing_shards);
    SPINNER_CHECK(steal_store.ok());
    const Clock::time_point t0 = Clock::now();
    auto run =
        RunShardedSpinner(run_config, &*steal_store, {}, &pool, nullptr);
    const double ms_per_iter = MsSince(t0) / iters;
    SPINNER_CHECK(run.ok()) << run.status();
    result.tasks = run->schedule.tasks;
    result.stolen_tasks = run->schedule.stolen_tasks;
    return ms_per_iter;
  };
  const std::vector<std::vector<double>> ms =
      SampleMeans({seed_replay, kernel_replay, stealing_replay}, iters);
  result.seed_ms = Median(ms[0]);
  result.kernel_ms = Median(ms[1]);
  result.stealing_ms = Median(ms[2]);
  result.kernel_speedup = MedianRatio(ms[0], ms[1]);
  result.stealing_speedup = MedianRatio(ms[0], ms[2]);
  return result;
}

void WriteJson(const std::string& path, bool smoke, int iters,
               const std::vector<CaseResult>& cases) {
  std::FILE* json = std::fopen(path.c_str(), "w");
  SPINNER_CHECK(json != nullptr) << "cannot write " << path;
  std::fprintf(json, "{\n  \"bench\": \"lpa_kernel\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"iterations\": %d,\n", iters);
  std::fprintf(json, "  \"cases\": [\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(
        json,
        "    {\"case\": \"%s\", \"k\": %d, \"vertices\": %lld, "
        "\"arcs\": %lld,\n"
        "     \"seed_ms_per_iter\": %.4f, \"kernel_ms_per_iter\": %.4f,\n"
        "     \"stealing_ms_per_iter\": %.4f, \"kernel_speedup\": %.4f,\n"
        "     \"stealing_speedup\": %.4f, \"tasks\": %lld, "
        "\"stolen_tasks\": %lld}%s\n",
        c.name.c_str(), c.k, static_cast<long long>(c.vertices),
        static_cast<long long>(c.arcs), c.seed_ms, c.kernel_ms,
        c.stealing_ms, c.kernel_speedup, c.stealing_speedup,
        static_cast<long long>(c.tasks),
        static_cast<long long>(c.stolen_tasks),
        i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

void Run(bool smoke, const std::string& out_path, int n, int k, int iters) {
  PrintBanner(
      "LPA kernel — seed scalar loop vs current kernel + work-stealing "
      "superstep",
      "kernel_speedup >= 1.5 on the skewed (power-law) case; stealing at "
      "least matches the kernel when threads > 1");
  if (n <= 0) n = smoke ? 4000 : 24000;
  if (k <= 0) k = smoke ? 8 : 16;
  if (iters <= 0) iters = smoke ? 4 : 10;
  SpinnerConfig config;
  config.num_partitions = k;
  config.seed = 42;

  // Degree-skew sweep: the degree-16 uniform graph touches up to 16
  // labels per vertex at any k, while the power-law cases mix low-degree
  // vertices with hubs that touch every label.
  auto uniform = WattsStrogatz(n, 8, 0.3, 42);
  SPINNER_CHECK(uniform.ok());
  auto skewed = BarabasiAlbert(n, 8, 8, 42);
  SPINNER_CHECK(skewed.ok());
  StandIn hubs = MakeStandIn("TW+hubs");
  if (smoke) {
    hubs.graph = std::move(skewed).value();
    auto reskew = BarabasiAlbert(n, 8, 8, 42);
    SPINNER_CHECK(reskew.ok());
    skewed = std::move(reskew);
    Rng rng(SplitMix64(42 ^ 0xCE1EBULL));
    for (VertexId hub = 0; hub < 4; ++hub) {
      for (int i = 0; i < 1500; ++i) {
        const auto follower =
            static_cast<VertexId>(rng.Uniform(hubs.graph.num_vertices));
        if (follower != hub) hubs.graph.edges.push_back({follower, hub});
      }
    }
  }

  // Every topology runs at the sweep's k, again at k = 32, perfbench's k,
  // and at k = 128, past the one-word presence bitmap.
  struct Topology {
    std::string name;
    std::string recipe;
    GeneratedGraph graph;
  };
  const std::vector<Topology> topologies = {
      {"uniform", "WattsStrogatz(deg=16, beta=0.3)",
       std::move(uniform).value()},
      {"skewed", "BarabasiAlbert(m=8) power-law", std::move(skewed).value()},
      {"hubs", "power-law + celebrity overlay", std::move(hubs.graph)}};
  const int stealing_shards = 7;
  std::vector<CaseResult> cases;
  std::vector<int> sweep_ks = {k};
  for (const int wide_k : {32, 128}) {
    if (k != wide_k) sweep_ks.push_back(wide_k);
  }
  for (const int case_k : sweep_ks) {
    config.num_partitions = case_k;
    const std::string suffix =
        case_k == k ? "" : "_k" + std::to_string(case_k);
    for (const Topology& t : topologies) {
      cases.push_back(RunCase(t.name + suffix, t.recipe, t.graph, config,
                              iters, stealing_shards));
    }
  }

  std::printf("\n%-12s %9s %10s | %10s %10s %10s | %8s %8s | %7s\n", "case",
              "vertices", "arcs", "seed ms", "kernel ms", "steal ms",
              "k-spd", "s-spd", "stolen");
  for (const CaseResult& c : cases) {
    std::printf(
        "%-12s %9lld %10lld | %10.2f %10.2f %10.2f | %7.2fx %7.2fx | "
        "%7lld\n",
        c.name.c_str(), static_cast<long long>(c.vertices),
        static_cast<long long>(c.arcs), c.seed_ms, c.kernel_ms,
        c.stealing_ms, c.kernel_speedup, c.stealing_speedup,
        static_cast<long long>(c.stolen_tasks));
  }
  WriteJson(out_path, smoke, iters, cases);
}

}  // namespace
}  // namespace spinner::bench

int main(int argc, char** argv) {
  const bool smoke = spinner::bench::ConsumeSmokeFlag(&argc, argv);
  spinner::CommandLine cli;
  // Only --smoke and the flags read below are accepted. Anything else,
  // --help included, exits here: a run would overwrite the JSON artifact.
  bool usable = cli.Parse(argc, argv).ok() && cli.Positional().empty();
  for (const std::string& name : cli.FlagNames()) {
    usable = usable &&
             (name == "out" || name == "n" || name == "k" || name == "iters");
  }
  if (!usable) {
    std::fprintf(stderr,
                 "usage: bench_lpa_kernel [--smoke] [--out=PATH] [--n=N] "
                 "[--k=K] [--iters=N]\n");
    return 2;
  }
  spinner::bench::Run(smoke, cli.GetString("out", "BENCH_lpa_kernel.json"),
                      static_cast<int>(cli.GetInt("n", 0)),
                      static_cast<int>(cli.GetInt("k", 0)),
                      static_cast<int>(cli.GetInt("iters", 0)));
  return 0;
}
