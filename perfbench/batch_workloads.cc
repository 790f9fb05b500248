// batch_inproc and batch_dist: one partitioning pipeline, two LPA
// substrates.
//
//   ReadEdgeList → Convert (Eq. 3) | BuildSymmetric → ShardedGraphStore::Build
//     → RunShardedSpinner | dist::RunMultiProcessSpinner
//     → ComputeMetricsEx → WriteSessionSnapshot
//
// Untraced runs repeat the whole pipeline and report medians. Traced runs
// execute it once with every call timed, then re-run LPA with a
// ProgressObserver (iteration timestamps) and — in-process — through a
// bench-owned sequential SuperstepBackend that times each shard phase call.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "graph/binary_io.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/sharded_store.h"
#include "spinner/config.h"
#include "spinner/metrics.h"
#include "spinner/observer.h"
#include "spinner/shard_superstep.h"
#include "spinner/sharded_program.h"
#include "spinner/superstep_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spinner::CsrGraph;
using spinner::EdgeList;
using spinner::PartitionId;
using spinner::ProgressObserver;
using spinner::Result;
using spinner::ShardedGraphStore;
using spinner::ShardedRunResult;
using spinner::SpinnerConfig;
using spinner::Status;

struct BatchSpec {
  int64_t vertices = 0;
  int m0 = 8;
  int m = 8;
  /// true: edges are read as directed and converted with Eq. 3 weights;
  /// false: the undirected BuildSymmetric path.
  bool directed = true;
  int k = 32;
  double c = 1.05;
  int shards = 8;
  /// Pool threads of the in-process LPA (batch_dist: of the in-process
  /// reference run it is compared against).
  int threads = 4;
  /// Forked worker processes; 0 runs LPA in-process.
  int workers = 0;
};

// Tiny inputs use k=8: ρ ≤ c holds with high probability only once
// partitions hold enough vertices.
BatchSpec InprocSpec(const Options& o) {
  BatchSpec spec;
  spec.vertices = o.tiny ? 4000 : 600000;
  spec.k = o.tiny ? 8 : 32;
  return spec;
}

BatchSpec DistSpec(const Options& o) {
  BatchSpec spec;
  spec.vertices = o.tiny ? 4000 : 300000;
  spec.k = o.tiny ? 8 : 32;
  spec.directed = false;
  spec.shards = 9;
  spec.threads = 3;
  spec.workers = 3;
  return spec;
}

SpinnerConfig ConfigFor(const BatchSpec& spec) {
  SpinnerConfig config;
  config.num_partitions = spec.k;
  config.additional_capacity = spec.c;
  return config;
}

/// The converted graph and its store, plus the raw edges the snapshot
/// persists.
struct Loaded {
  int64_t num_vertices = 0;
  EdgeList edges;
  CsrGraph converted;
  ShardedGraphStore store;
  double load_s = 0;
  double convert_s = 0;
  double build_s = 0;
};

/// Bytes the LPA supersteps touch, computed from array sizes: every
/// shard's CSR slice and degree caches, plus the label, candidate and
/// per-block arrays.
int64_t LpaWorkingSetBytes(const ShardedGraphStore& store) {
  int64_t bytes = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    const ShardedGraphStore::Shard& shard = store.shard(s);
    bytes += static_cast<int64_t>(
        shard.offsets.size() * sizeof(int64_t) +
        shard.targets.size() * sizeof(spinner::VertexId) +
        shard.weights.size() * sizeof(spinner::EdgeWeight) +
        shard.weighted_degree.size() * sizeof(int64_t) +
        shard.inv_weighted_degree.size() * sizeof(double));
  }
  bytes += store.NumVertices() * 2 * static_cast<int64_t>(sizeof(PartitionId));
  bytes += store.NumBlocks() * static_cast<int64_t>(sizeof(double) +
                                                     sizeof(int32_t));
  return bytes;
}

bool GenerateInput(const BatchSpec& spec, const Options& o,
                   const std::string& path, Report* report) {
  auto graph = spinner::BarabasiAlbert(spec.vertices, spec.m0, spec.m,
                                       o.seed);
  if (!report->Check(graph.status(), "BarabasiAlbert")) return false;
  return report->Check(spinner::graph_io::WriteEdgeList(path, graph->edges),
                       "WriteEdgeList");
}

/// Load → convert → store build, each call timed.
bool Setup(const BatchSpec& spec, const std::string& path, Report* report,
           Loaded* out) {
  Clock::time_point t = Clock::now();
  auto edges = spinner::graph_io::ReadEdgeList(path);
  if (!report->Check(edges.status(), "ReadEdgeList")) return false;
  out->edges = std::move(edges).value();
  out->num_vertices =
      out->edges.empty() ? 0 : spinner::MaxVertexId(out->edges) + 1;
  out->load_s = SecondsSince(t);

  t = Clock::now();
  auto converted =
      spec.directed
          ? spinner::ConvertToWeightedUndirected(out->num_vertices,
                                                 out->edges)
          : spinner::BuildSymmetric(out->num_vertices, out->edges);
  if (!report->Check(converted.status(), "convert")) return false;
  out->converted = std::move(converted).value();
  out->convert_s = SecondsSince(t);

  t = Clock::now();
  auto store = ShardedGraphStore::Build(out->converted, spec.shards);
  if (!report->Check(store.status(), "ShardedGraphStore::Build")) {
    return false;
  }
  out->store = std::move(store).value();
  out->build_s = SecondsSince(t);
  return true;
}

/// One LPA call over a store, with or without an observer.
using LpaCall = std::function<Result<ShardedRunResult>(
    ShardedGraphStore*, const ProgressObserver*)>;

/// Seconds since the LPA call at each observer callback (one per
/// iteration, right after its ComputeScores phase).
struct IterationClock {
  Clock::time_point start;
  std::vector<double> at;

  ProgressObserver Observer() {
    ProgressObserver observer;
    observer.on_iteration = [this](const spinner::IterationPoint&) {
      at.push_back(SecondsSince(start));
      return true;
    };
    return observer;
  }
  void Restart() {
    at.clear();
    start = Clock::now();
  }
  /// Wall time between consecutive callbacks: one ComputeMigrations plus
  /// one ComputeScores phase each.
  std::vector<double> IntervalsMs() const {
    std::vector<double> out;
    for (size_t i = 1; i < at.size(); ++i) {
      out.push_back((at[i] - at[i - 1]) * 1e3);
    }
    return out;
  }
};

/// Per-iteration wall time (ComputeScores + ComputeMigrations superstep
/// pairs) as the run's own statistics record it; the final scores-only
/// superstep of a halted run has no pair and is left out.
std::vector<double> IterationMs(const ShardedRunResult& run) {
  const auto& steps = run.run_stats.per_superstep;
  std::vector<double> out;
  for (size_t i = 1; i + 1 < steps.size(); i += 2) {
    out.push_back((steps[i].wall_seconds + steps[i + 1].wall_seconds) * 1e3);
  }
  return out;
}

int64_t TotalMigrations(const ShardedRunResult& run) {
  int64_t total = 0;
  for (const spinner::IterationPoint& p : run.history) total += p.migrations;
  return total;
}

struct RepResult {
  double setup_s = 0;
  double partition_s = 0;
  double metrics_s = 0;
  double snapshot_s = 0;
  double total_s = 0;
  std::vector<double> iteration_ms;
  uint64_t hash = 0;
  double phi = 0;
  double rho = 0;
  int64_t cut_weight = 0;
  ShardedRunResult run;
};

/// The rest of the pipeline after Setup: LPA, metrics, snapshot.
bool RunAfterSetup(const BatchSpec& spec, const LpaCall& lpa,
                   const std::string& snapshot_path, Loaded* loaded,
                   Report* report, RepResult* out) {
  Clock::time_point t = Clock::now();
  auto run = lpa(&loaded->store, nullptr);
  if (!report->Check(run.status(), "LPA")) return false;
  out->partition_s = SecondsSince(t);
  out->run = std::move(run).value();
  const std::vector<PartitionId>& labels = loaded->store.labels();

  t = Clock::now();
  auto metrics = spinner::ComputeMetricsEx(loaded->converted, labels, spec.k,
                                           spec.c, spinner::BalanceSpec{});
  if (!report->Check(metrics.status(), "ComputeMetricsEx")) return false;
  out->metrics_s = SecondsSince(t);

  t = Clock::now();
  spinner::graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = loaded->num_vertices;
  snapshot.edges = std::move(loaded->edges);
  snapshot.directed = spec.directed;
  snapshot.num_partitions = spec.k;
  snapshot.assignment = labels;
  const Status written =
      spinner::graph_io::WriteSessionSnapshot(snapshot_path, snapshot);
  loaded->edges = std::move(snapshot.edges);
  if (!report->Check(written, "WriteSessionSnapshot")) return false;
  out->snapshot_s = SecondsSince(t);

  out->iteration_ms = IterationMs(out->run);
  out->hash = HashLabels(labels);
  out->phi = metrics->phi;
  out->rho = metrics->rho;
  out->cut_weight = metrics->cut_weight;
  return true;
}

/// The snapshot on disk holds the run's graph and assignment.
void CheckSnapshot(const std::string& path, const Loaded& loaded,
                   uint64_t hash, Report* report) {
  auto read = spinner::graph_io::ReadSessionSnapshot(path);
  if (!report->Check(read.status(), "ReadSessionSnapshot")) return;
  report->Check(read->num_vertices == loaded.num_vertices &&
                    read->edges == loaded.edges &&
                    HashLabels(read->assignment) == hash,
                "snapshot round-trips the graph and the assignment");
}

void CheckRho(const BatchSpec& spec, double rho, Report* report) {
  report->Check(rho <= spec.c + kRhoSlack,
                "rho " + std::to_string(rho) + " within c + slack");
}

void AddInputContext(const BatchSpec& spec, const Loaded& loaded,
                     Report* report) {
  const int64_t ws = LpaWorkingSetBytes(loaded.store);
  const int64_t llc = LlcBytes();
  report->Context("graph_vertices", static_cast<double>(loaded.num_vertices));
  report->Context("graph_edges", static_cast<double>(loaded.edges.size()));
  report->Context("graph_arcs", static_cast<double>(loaded.store.NumArcs()));
  report->Context("lpa_working_set_bytes", static_cast<double>(ws));
  report->Context("working_set_over_llc",
                  llc > 0 ? static_cast<double>(ws) / static_cast<double>(llc)
                          : 0.0);
  report->Context("k", spec.k);
  report->Context("c", spec.c);
  report->Context("shards", spec.shards);
  report->Context("threads", spec.threads);
  report->Context("workers", spec.workers);
}

/// Untraced: repeat the pipeline until the budget is spent; medians.
void MeasureBatch(const BatchSpec& spec, const Options& o, const LpaCall& lpa,
                  const std::string& edge_path,
                  const std::string& snapshot_path, Report* report,
                  Loaded* last, RepResult* first) {
  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 50;
  std::vector<double> setup, partition, total, iteration_ms, phi, rho;
  // Peak RSS of the first, cold repeat: what one pipeline run costs.
  double first_rss_mb = 0;
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  double last_rep_s = 0;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && SecondsSince(start) + last_rep_s > o.seconds) {
      break;
    }
    *last = Loaded{};
    const Clock::time_point rep_start = Clock::now();
    RepResult r;
    if (!Setup(spec, edge_path, report, last)) return;
    r.setup_s = last->load_s + last->convert_s + last->build_s;
    if (!RunAfterSetup(spec, lpa, snapshot_path, last, report, &r)) return;
    r.total_s = SecondsSince(rep_start);
    last_rep_s = r.total_s;
    if (rep == 0) first_rss_mb = PeakRssMb();

    setup.push_back(r.setup_s);
    partition.push_back(r.partition_s);
    total.push_back(r.total_s);
    iteration_ms.insert(iteration_ms.end(), r.iteration_ms.begin(),
                        r.iteration_ms.end());
    phi.push_back(r.phi);
    rho.push_back(r.rho);
    if (rep == 0) {
      *first = std::move(r);
    } else {
      report->Check(r.hash == first->hash,
                    "repeated pipeline reproduces the assignment");
    }
  }
  report->Metric("setup_s", Median(setup), "s");
  report->Metric("partition_s", Median(partition), "s");
  report->Metric("total_s", Median(total), "s");
  report->Metric("step_p50_ms", Quantile(iteration_ms, 0.5), "ms");
  report->Metric("phi", Median(phi), "frac");
  report->Metric("rho", Median(rho), "ratio");
  report->Metric("peak_rss_mb", first_rss_mb, "MB");
  report->Context("reps", static_cast<double>(setup.size()));
  report->Context("step_samples", static_cast<double>(iteration_ms.size()));
  report->Context("step_p90_ms", Quantile(iteration_ms, 0.9));
  report->Context("lpa_iterations", first->run.iterations);
  CheckRho(spec, Median(rho), report);
}

void AddLayerTimes(const Loaded& loaded, const RepResult& r,
                   const std::string& snapshot_path, Report* report) {
  report->Metric("graph.load_s", loaded.load_s, "s");
  report->Metric("graph.convert_s", loaded.convert_s, "s");
  report->Metric("graph.store_build_s", loaded.build_s, "s");
  report->Metric("graph.snapshot_s", r.snapshot_s, "s");
  report->Metric("graph.snapshot_bytes",
                 static_cast<double>(FileBytes(snapshot_path)), "bytes");
  report->Metric("graph.arcs", static_cast<double>(loaded.store.NumArcs()),
                 "count");
  report->Metric("graph.lpa_working_set_mb",
                 static_cast<double>(LpaWorkingSetBytes(loaded.store)) / 1e6,
                 "MB");
  report->Metric("spinner.metrics_s", r.metrics_s, "s");
  report->Metric("spinner.iterations", r.run.iterations, "count");
  report->Metric("spinner.migrations",
                 static_cast<double>(TotalMigrations(r.run)), "count");
  report->Metric("spinner.tasks", static_cast<double>(r.run.schedule.tasks),
                 "count");
  report->Metric("spinner.stolen_tasks",
                 static_cast<double>(r.run.schedule.stolen_tasks), "count");
}

/// Runs `lpa` with an IterationClock observer; false on failure.
bool ObservedRun(const LpaCall& lpa, ShardedGraphStore* store,
                 IterationClock* clock, double* wall_s, uint64_t* hash,
                 Report* report, const std::string& what) {
  const ProgressObserver observer = clock->Observer();
  clock->Restart();
  auto run = lpa(store, &observer);
  *wall_s = SecondsSince(clock->start);
  if (!report->Check(run.status(), what)) return false;
  *hash = HashLabels(store->labels());
  return report->Check(!clock->at.empty(), what + " reports iterations");
}

/// Reports trace_overhead_frac from one more untraced/observed pair on
/// top of the first: the fastest call of each side is compared, so one
/// call slowed by a neighbour on a shared host does not read as overhead.
/// Returns the fastest untraced LPA time, 0 on failure.
double ReportTraceOverhead(const LpaCall& lpa, ShardedGraphStore* store,
                           double untraced_s, double observed_s,
                           Report* report) {
  const Clock::time_point t = Clock::now();
  auto rerun = lpa(store, nullptr);
  const double rerun_s = SecondsSince(t);
  if (!report->Check(rerun.status(), "untraced LPA rerun")) return 0;
  IterationClock clock;
  double reobserved_s = 0;
  uint64_t hash = 0;
  if (!ObservedRun(lpa, store, &clock, &reobserved_s, &hash, report,
                   "observed LPA rerun")) {
    return 0;
  }
  const double untraced = std::min(untraced_s, rerun_s);
  report->Metric("trace_overhead_frac",
                 std::min(observed_s, reobserved_s) / untraced - 1.0, "frac");
  return untraced;
}

void AddIterationTimes(const IterationClock& clock, Report* report) {
  const std::vector<double> intervals = clock.IntervalsMs();
  report->Metric("spinner.first_iter_s", clock.at.front(), "s");
  report->Metric("spinner.iter_ms_p50", Quantile(intervals, 0.5), "ms");
  report->Metric("spinner.iter_ms_p90", Quantile(intervals, 0.9), "ms");
}

/// A sequential SuperstepBackend over the public whole-shard phase
/// bodies, timing every call. Runs the same per-shard code as every other
/// substrate, so its assignment must match theirs bit for bit.
class TimedSequentialBackend final : public spinner::SuperstepBackend {
 public:
  TimedSequentialBackend(const SpinnerConfig& config, ShardedGraphStore* store)
      : config_(config),
        store_(store),
        candidate_(static_cast<size_t>(store->NumVertices()),
                   spinner::kNoPartition),
        block_score_(static_cast<size_t>(store->NumBlocks()), 0.0),
        block_candidates_(static_cast<size_t>(store->NumBlocks()), 0),
        scratch_(static_cast<size_t>(store->num_shards())) {
    for (spinner::ShardScratch& sc : scratch_) {
      sc.Prepare(config.num_partitions);
    }
  }

  Status Initialize(const std::vector<PartitionId>& initial_labels,
                    InitOutcome* out) override {
    out->messages_out.assign(scratch_.size(), 0);
    for (int s = 0; s < store_->num_shards(); ++s) {
      const Clock::time_point t = Clock::now();
      out->messages_out[s] =
          spinner::ShardInitialize(config_, &store_->mutable_shard(s),
                                   store_->labels(), initial_labels);
      init_s += SecondsSince(t);
    }
    return Status::OK();
  }

  Status ComputeScores(int64_t superstep,
                       const std::vector<int64_t>& global_loads,
                       const std::vector<double>& capacities,
                       ScoreOutcome* out) override {
    for (int s = 0; s < store_->num_shards(); ++s) {
      const Clock::time_point t = Clock::now();
      spinner::ShardComputeScores(config_, store_->shard(s), store_->labels(),
                                  global_loads, capacities, superstep,
                                  candidate_, block_score_, block_candidates_,
                                  &scratch_[s]);
      scores_s += SecondsSince(t);
      scored_arcs += store_->shard(s).NumArcs();
    }
    out->block_score = block_score_;
    out->local_weight = 0;
    out->migration_counts.assign(
        static_cast<size_t>(config_.num_partitions), 0);
    for (const spinner::ShardScratch& sc : scratch_) {
      out->local_weight += sc.local_weight;
      for (size_t l = 0; l < out->migration_counts.size(); ++l) {
        out->migration_counts[l] += sc.migrations[l];
      }
    }
    return Status::OK();
  }

  Status ComputeMigrations(int64_t superstep,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           const std::vector<int64_t>& migration_counts,
                           MigrateOutcome* out) override {
    out->migrated = 0;
    out->messages_out.assign(scratch_.size(), 0);
    for (int s = 0; s < store_->num_shards(); ++s) {
      const Clock::time_point t = Clock::now();
      spinner::ShardComputeMigrations(
          config_, &store_->mutable_shard(s), store_->labels(), global_loads,
          capacities, migration_counts, superstep, candidate_,
          block_candidates_, /*moves=*/nullptr, &scratch_[s]);
      migrate_s += SecondsSince(t);
      out->migrated += scratch_[s].migrated;
      out->messages_out[s] = scratch_[s].messages;
    }
    return Status::OK();
  }

  double init_s = 0;
  double scores_s = 0;
  double migrate_s = 0;
  int64_t scored_arcs = 0;

 private:
  const SpinnerConfig& config_;
  ShardedGraphStore* store_;
  std::vector<PartitionId> candidate_;
  std::vector<double> block_score_;
  std::vector<int32_t> block_candidates_;
  std::vector<spinner::ShardScratch> scratch_;
};

struct Paths {
  std::string edges;
  std::string snapshot;
};

Paths PathsFor(const char* name, const Options& o) {
  const std::string base =
      o.workdir + "/" + name + "-" + std::to_string(o.seed);
  return {base + ".edges", base + ".spns"};
}

void RemovePaths(const Paths& paths) {
  std::error_code ignored;
  std::filesystem::remove(paths.edges, ignored);
  std::filesystem::remove(paths.snapshot, ignored);
}

/// What the traced pipeline leaves for the workload-specific breakdown.
struct Traced {
  Loaded loaded;
  RepResult first;
  /// Iteration timestamps of the first observed LPA call.
  IterationClock clock;
  /// Fastest untraced LPA call.
  double partition_s = 0;
};

/// The traced run both batch workloads share: one pipeline pass with
/// every call timed, its output checks, then observed LPA calls for the
/// iteration timestamps and the cost of observing. False on failure.
bool TracePipeline(const BatchSpec& spec, const LpaCall& lpa,
                   const Paths& paths, Report* report, Traced* out) {
  Loaded& loaded = out->loaded;
  RepResult& r = out->first;
  if (!Setup(spec, paths.edges, report, &loaded)) return false;
  AddInputContext(spec, loaded, report);
  if (!RunAfterSetup(spec, lpa, paths.snapshot, &loaded, report, &r)) {
    return false;
  }
  AddLayerTimes(loaded, r, paths.snapshot, report);
  CheckRho(spec, r.rho, report);
  CheckSnapshot(paths.snapshot, loaded, r.hash, report);

  double observed_s = 0;
  uint64_t observed_hash = 0;
  if (!ObservedRun(lpa, &loaded.store, &out->clock, &observed_s,
                   &observed_hash, report, "observed LPA")) {
    return false;
  }
  AddIterationTimes(out->clock, report);
  report->Check(observed_hash == r.hash,
                "observed LPA reproduces the untraced assignment");
  out->partition_s = ReportTraceOverhead(lpa, &loaded.store, r.partition_s,
                                         observed_s, report);
  return out->partition_s > 0;
}

/// batch_inproc, traced: the shared pipeline, then the phase split.
void TraceInproc(const BatchSpec& spec, const LpaCall& lpa,
                 const Paths& paths, Report* report) {
  Traced traced;
  if (!TracePipeline(spec, lpa, paths, report, &traced)) return;
  ShardedGraphStore& store = traced.loaded.store;

  // The shared master schedule over a sequential backend that times each
  // public shard phase call.
  const SpinnerConfig config = ConfigFor(spec);
  TimedSequentialBackend backend(config, &store);
  const Clock::time_point t = Clock::now();
  auto driven =
      spinner::DriveSpinnerSupersteps(config, &store, {}, &backend, nullptr);
  const double drive_s = SecondsSince(t);
  if (!report->Check(driven.status(), "DriveSpinnerSupersteps")) return;
  const double phases_s = backend.init_s + backend.scores_s + backend.migrate_s;
  report->Metric("spinner.init_s", backend.init_s, "s");
  report->Metric("spinner.scores_s", backend.scores_s, "s");
  report->Metric("spinner.migrate_s", backend.migrate_s, "s");
  report->Metric("spinner.driver_self_s", drive_s - phases_s, "s");
  report->Metric("spinner.scores_ns_per_arc",
                 backend.scored_arcs > 0
                     ? backend.scores_s * 1e9 /
                           static_cast<double>(backend.scored_arcs)
                     : 0.0,
                 "ns");
  report->Metric("spinner.parallel_efficiency",
                 phases_s / (spec.threads * traced.partition_s), "frac");
  report->Check(HashLabels(store.labels()) == traced.first.hash,
                "timed sequential backend reproduces the assignment");
}

/// batch_dist, traced: the shared pipeline, then the in-process reference
/// on the same store and the wire counters.
void TraceDist(const BatchSpec& spec, const LpaCall& lpa,
               const LpaCall& reference, const Paths& paths, Report* report) {
  Traced traced;
  if (!TracePipeline(spec, lpa, paths, report, &traced)) return;
  const RepResult& r = traced.first;
  const double dist_iter_ms = Quantile(traced.clock.IntervalsMs(), 0.5);
  report->Metric("dist.fleet_setup_s",
                 traced.clock.at.front() - dist_iter_ms / 1e3, "s");

  IterationClock local_clock;
  double local_s = 0;
  uint64_t local_hash = 0;
  if (!ObservedRun(reference, &traced.loaded.store, &local_clock, &local_s,
                   &local_hash, report, "in-process reference LPA")) {
    return;
  }
  report->Metric("dist.iter_overhead_ms",
                 dist_iter_ms - Quantile(local_clock.IntervalsMs(), 0.5),
                 "ms");
  report->Check(local_hash == r.hash,
                "dist assignment equals the in-process run on the same store");

  const spinner::WireTraffic& wire = r.run.wire;
  std::vector<double> step_bytes(wire.per_superstep_bytes.begin(),
                                 wire.per_superstep_bytes.end());
  const double step_bytes_p50 = Median(step_bytes);
  report->Metric("dist.bytes_sent", static_cast<double>(wire.bytes_sent),
                 "bytes");
  report->Metric("dist.bytes_received",
                 static_cast<double>(wire.bytes_received), "bytes");
  report->Metric("dist.frames_sent", static_cast<double>(wire.frames_sent),
                 "count");
  report->Metric("dist.frames_received",
                 static_cast<double>(wire.frames_received), "count");
  report->Metric("dist.slice_bytes_downloaded",
                 static_cast<double>(wire.slice_bytes_downloaded), "bytes");
  report->Metric("dist.label_values_sent",
                 static_cast<double>(wire.label_values_sent), "count");
  report->Metric("dist.delta_entries_sent",
                 static_cast<double>(wire.delta_entries_sent), "count");
  report->Metric("dist.superstep_bytes_p50", step_bytes_p50, "bytes");
  report->Metric("dist.superstep_bytes_per_cut_arc",
                 r.cut_weight > 0
                     ? step_bytes_p50 / static_cast<double>(r.cut_weight)
                     : 0.0,
                 "bytes");
  report->Metric("dist.recoveries", static_cast<double>(wire.recoveries),
                 "count");
  report->Metric("dist.worker_peak_rss_mb", ChildrenPeakRssMb(), "MB");
  report->Check(wire.recoveries == 0, "no worker recoveries");
}

}  // namespace

void RunBatchInproc(const Options& o, Report* report) {
  const BatchSpec spec = InprocSpec(o);
  const SpinnerConfig config = ConfigFor(spec);
  spinner::ThreadPool pool(spec.threads);
  const LpaCall lpa = [&](ShardedGraphStore* store,
                          const ProgressObserver* observer) {
    return spinner::RunShardedSpinner(config, store, {}, &pool, observer);
  };
  const Paths paths = PathsFor("batch_inproc", o);
  AddHostContext(report);
  if (GenerateInput(spec, o, paths.edges, report)) {
    if (o.trace) {
      TraceInproc(spec, lpa, paths, report);
    } else {
      Loaded loaded;
      RepResult first;
      MeasureBatch(spec, o, lpa, paths.edges, paths.snapshot, report,
                   &loaded, &first);
      if (report->correct()) {
        AddInputContext(spec, loaded, report);
        CheckSnapshot(paths.snapshot, loaded, first.hash, report);
      }
    }
  }
  RemovePaths(paths);
}

void RunBatchDist(const Options& o, Report* report) {
  const BatchSpec spec = DistSpec(o);
  const SpinnerConfig config = ConfigFor(spec);
  spinner::dist::MultiProcessOptions mp;
  mp.num_workers = spec.workers;
  const LpaCall lpa = [&](ShardedGraphStore* store,
                          const ProgressObserver* observer) {
    return spinner::dist::RunMultiProcessSpinner(config, store, {}, mp,
                                                 observer);
  };
  // The in-process reference runs only after every dist run has forked
  // its workers, so no pool thread exists at fork time.
  std::unique_ptr<spinner::ThreadPool> pool;
  const LpaCall reference = [&](ShardedGraphStore* store,
                                const ProgressObserver* observer) {
    if (!pool) pool = std::make_unique<spinner::ThreadPool>(spec.threads);
    return spinner::RunShardedSpinner(config, store, {}, pool.get(),
                                      observer);
  };
  const Paths paths = PathsFor("batch_dist", o);
  AddHostContext(report);
  if (GenerateInput(spec, o, paths.edges, report)) {
    if (o.trace) {
      TraceDist(spec, lpa, reference, paths, report);
    } else {
      Loaded loaded;
      RepResult first;
      MeasureBatch(spec, o, lpa, paths.edges, paths.snapshot, report,
                   &loaded, &first);
      if (report->correct()) {
        AddInputContext(spec, loaded, report);
        CheckSnapshot(paths.snapshot, loaded, first.hash, report);
        auto local = reference(&loaded.store, nullptr);
        if (report->Check(local.status(), "in-process reference LPA")) {
          report->Check(
              HashLabels(loaded.store.labels()) == first.hash,
              "dist assignment equals the in-process run on the same store");
        }
        report->Check(first.run.wire.recoveries == 0, "no worker recoveries");
      }
    }
  }
  pool.reset();
  RemovePaths(paths);
}

}  // namespace perfbench
