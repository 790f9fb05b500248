// stream_ingest: maintained partitioning under a live edge stream.
//
// A session is Open()ed on a small-world graph, then one producer thread
// runs a closed loop of blocking Submit calls into an IngestionService,
// whose EventCountPolicy closes a window every `watermark` events. The
// stream is fresh edges plus retries (duplicate adds) and transient
// add/remove pairs, which the service coalesces away.
//
// Untraced runs repeat Open + stream and report medians; the check is a
// blocking replay of the same windows through PartitioningSession, which
// the ingestion determinism contract makes bit-identical. Traced runs time
// the service's counters, then replay with a ProgressObserver to split
// each window's apply, and time the graph layer's per-window calls.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "spinner/config.h"
#include "spinner/observer.h"
#include "spinner/session.h"
#include "stream/ingestion_service.h"
#include "stream/trigger_policy.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spinner::EdgeList;
using spinner::GraphDelta;
using spinner::PartitioningSession;
using spinner::stream::EdgeEvent;

struct StreamSpec {
  int64_t vertices = 25000;
  int per_side = 8;
  double beta = 0.3;
  int k = 32;
  double c = 1.05;
  int shards = 8;
  int threads = 2;
  int64_t watermark = 128;
  size_t queue_capacity = 4096;
  /// Windows per stream. Untraced runs pool the windows of every repeat,
  /// so the p90 apply latency has at least 10 samples beyond it.
  int64_t windows = 40;
};

StreamSpec SpecFor(const Options& o) {
  StreamSpec spec;
  if (o.tiny) {  // k=8 for the reason batch_workloads.cc gives
    spec.vertices = 2000;
    spec.k = 8;
    spec.per_side = 4;
    spec.watermark = 32;
    spec.windows = 12;
  }
  return spec;
}

struct Input {
  int64_t num_vertices = 0;
  EdgeList edges;
  std::vector<EdgeEvent> events;
};

/// The graph plus windows·watermark events: fresh edges, a retry after
/// every 10th and a transient add/remove pair after every 25th.
bool MakeInput(const StreamSpec& spec, const Options& o, Report* report,
               Input* out) {
  auto graph = spinner::WattsStrogatz(spec.vertices, spec.per_side, spec.beta,
                                      o.seed);
  if (!report->Check(graph.status(), "WattsStrogatz")) return false;
  out->num_vertices = graph->num_vertices;
  out->edges = std::move(graph->edges);
  const int64_t target = spec.windows * spec.watermark;
  const GraphDelta fresh = spinner::RandomEdgeAdditions(
      out->num_vertices, out->edges, target, o.seed + 1);
  for (size_t i = 0; i < fresh.added_edges.size() &&
                     static_cast<int64_t>(out->events.size()) < target;
       ++i) {
    const spinner::Edge& e = fresh.added_edges[i];
    out->events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
    if (i % 10 == 0) out->events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
    if (i % 25 == 0) {
      out->events.push_back(EdgeEvent::AddEdge(e.dst, e.src));
      out->events.push_back(EdgeEvent::RemoveEdge(e.dst, e.src));
    }
  }
  return report->Check(static_cast<int64_t>(out->events.size()) >= target,
                       "stream has windows x watermark events");
}

spinner::SpinnerConfig ConfigFor(const StreamSpec& spec) {
  spinner::SpinnerConfig config;
  config.num_partitions = spec.k;
  config.additional_capacity = spec.c;
  return config;
}

spinner::SessionOptions SessionFor(const StreamSpec& spec) {
  spinner::SessionOptions options;
  options.execution.num_shards = spec.shards;
  options.execution.num_threads = spec.threads;
  return options;
}

/// The windows an EventCountPolicy closes: consecutive `watermark`-event
/// chunks, the last one partial, each folded and coalesced exactly as the
/// service does.
std::vector<GraphDelta> Windows(const StreamSpec& spec, const Input& input) {
  std::vector<GraphDelta> windows;
  for (size_t i = 0; i < input.events.size(); ++i) {
    if (i % static_cast<size_t>(spec.watermark) == 0) windows.emplace_back();
    const EdgeEvent& e = input.events[i];
    if (e.kind == EdgeEvent::Kind::kAddEdge) {
      windows.back().AddEdge(e.src, e.dst);
    } else {
      windows.back().RemoveEdge(e.src, e.dst);
    }
  }
  for (GraphDelta& w : windows) w.Coalesce();
  return windows;
}

/// What one streamed pass reports.
struct StreamedPass {
  double open_s = 0;
  double stream_s = 0;
  std::vector<double> apply_ms;
  std::vector<double> staleness_ms;
  double submit_s = 0;
  spinner::stream::IngestStats stats;
  uint64_t hash = 0;
  double phi = 0;
  double rho = 0;
};

/// Open + stream every event through a fresh service. `time_submits`
/// times each Submit call (traced runs only).
bool StreamOnce(const StreamSpec& spec, const Input& input, bool time_submits,
                Report* report, StreamedPass* out) {
  PartitioningSession session(ConfigFor(spec), SessionFor(spec));
  EdgeList edges = input.edges;
  Clock::time_point t = Clock::now();
  if (!report->Check(session.Open(input.num_vertices, std::move(edges),
                                  /*directed=*/false),
                     "session Open")) {
    return false;
  }
  out->open_s = SecondsSince(t);

  spinner::stream::IngestionOptions options;
  options.queue_capacity = spec.queue_capacity;
  options.policy =
      std::make_unique<spinner::stream::EventCountPolicy>(spec.watermark);
  // Runs on the ingestion thread; read only after Stop() joined it.
  options.on_apply = [out](const spinner::stream::IngestStats& stats) {
    out->apply_ms.push_back(static_cast<double>(stats.last_apply_micros) /
                            1e3);
    out->staleness_ms.push_back(
        static_cast<double>(stats.last_staleness_micros) / 1e3);
    return true;
  };
  spinner::stream::IngestionService service(&session, std::move(options));
  if (!report->Check(service.Start(), "service Start")) return false;

  t = Clock::now();
  int64_t submitted = 0;
  for (const EdgeEvent& event : input.events) {
    const Clock::time_point s = time_submits ? Clock::now() : t;
    const spinner::Status status = service.Submit(event);
    if (time_submits) out->submit_s += SecondsSince(s);
    if (!status.ok()) {
      report->Check(status, "Submit");
      break;
    }
    ++submitted;
  }
  report->CountOk(submitted);
  const spinner::Status stopped = service.Stop();
  out->stream_s = SecondsSince(t);
  if (!report->Check(stopped, "service Stop")) return false;

  out->stats = service.stats();
  const std::vector<GraphDelta> windows = Windows(spec, input);
  report->Check(out->stats.windows_applied ==
                        static_cast<int64_t>(windows.size()) &&
                    out->stats.events_ingested ==
                        static_cast<int64_t>(input.events.size()),
                "service applied every event in the expected windows");
  out->hash = HashLabels(session.assignment());
  out->phi = session.last_result().metrics.phi;
  out->rho = session.last_result().metrics.rho;
  return true;
}

/// Per-window timings of a blocking replay.
struct ReplayTimes {
  std::vector<double> apply_ms;
  std::vector<double> prep_ms;
  std::vector<double> refine_ms;
  std::vector<double> tail_ms;
  std::vector<double> iterations;
  std::vector<double> fold_ms;
  std::vector<double> convert_ms;
  uint64_t hash = 0;
};

/// The same windows through blocking PartitioningSession::ApplyDelta
/// calls; always yields the final assignment hash. With `split`, each
/// apply is split by observer timestamps and the graph layer's fold and
/// reconversion are timed on a private copy of the edge list.
bool Replay(const StreamSpec& spec, const Input& input, bool split,
            Report* report, ReplayTimes* out) {
  std::vector<double> at;  // ms since `call` at each observer callback
  Clock::time_point call;
  PartitioningSession session(ConfigFor(spec), SessionFor(spec));
  if (!report->Check(session.Open(input.num_vertices, input.edges,
                                  /*directed=*/false),
                     "replay session Open")) {
    return false;
  }
  if (split) {
    spinner::ProgressObserver observer;
    observer.on_iteration = [&at, &call](const spinner::IterationPoint&) {
      at.push_back(SecondsSince(call) * 1e3);
      return true;
    };
    session.SetProgressObserver(std::move(observer));
  }
  EdgeList edges = split ? input.edges : EdgeList{};
  for (const GraphDelta& delta : Windows(spec, input)) {
    if (split) {
      Clock::time_point t = Clock::now();
      auto folded = spinner::ApplyDelta(input.num_vertices, edges, delta);
      if (!report->Check(folded.status(), "ApplyDelta fold")) return false;
      out->fold_ms.push_back(SecondsSince(t) * 1e3);
      t = Clock::now();
      auto converted =
          spinner::BuildSymmetric(input.num_vertices, folded.value());
      if (!report->Check(converted.status(), "BuildSymmetric")) return false;
      out->convert_ms.push_back(SecondsSince(t) * 1e3);
      edges = std::move(folded).value();
    }
    at.clear();
    call = Clock::now();
    const spinner::Status applied = session.ApplyDelta(delta);
    const double apply_ms = SecondsSince(call) * 1e3;
    if (!report->Check(applied, "session ApplyDelta")) return false;
    out->apply_ms.push_back(apply_ms);
    if (split) {
      if (!report->Check(!at.empty(), "replayed window reports iterations")) {
        return false;
      }
      out->prep_ms.push_back(at.front());
      out->refine_ms.push_back(at.back() - at.front());
      out->tail_ms.push_back(apply_ms - at.back());
      out->iterations.push_back(static_cast<double>(at.size()));
    }
  }
  out->hash = HashLabels(session.assignment());
  return true;
}

void AddInputContext(const StreamSpec& spec, const Input& input,
                     Report* report) {
  report->Context("graph_vertices", static_cast<double>(input.num_vertices));
  report->Context("graph_edges", static_cast<double>(input.edges.size()));
  report->Context("graph_arcs", static_cast<double>(2 * input.edges.size()));
  report->Context("events", static_cast<double>(input.events.size()));
  report->Context("watermark", static_cast<double>(spec.watermark));
  report->Context("queue_capacity", static_cast<double>(spec.queue_capacity));
  report->Context("k", spec.k);
  report->Context("c", spec.c);
  report->Context("shards", spec.shards);
  report->Context("threads", spec.threads);
}

void CheckRho(const StreamSpec& spec, double rho, Report* report) {
  report->Check(rho <= spec.c + kRhoSlack,
                "rho " + std::to_string(rho) + " within c + slack");
}

}  // namespace

void RunStreamIngest(const Options& o, Report* report) {
  const StreamSpec spec = SpecFor(o);
  AddHostContext(report);
  Input input;
  if (!MakeInput(spec, o, report, &input)) return;
  AddInputContext(spec, input, report);

  if (!o.trace) {
    constexpr int kMinReps = 3;
    constexpr int kMaxReps = 50;
    std::vector<double> setup, partition, total, apply_ms, phi, rho;
    // Peak RSS of the first, cold repeat: what one Open + stream costs.
    double first_rss_mb = 0;
    ResetPeakRss();
    uint64_t hash = 0;
    const Clock::time_point start = Clock::now();
    double last_rep_s = 0;
    for (int rep = 0; rep < kMaxReps; ++rep) {
      if (rep >= kMinReps && SecondsSince(start) + last_rep_s > o.seconds) {
        break;
      }
      StreamedPass pass;
      if (!StreamOnce(spec, input, /*time_submits=*/false, report, &pass)) {
        return;
      }
      if (rep == 0) first_rss_mb = PeakRssMb();
      last_rep_s = pass.open_s + pass.stream_s;
      setup.push_back(pass.open_s);
      partition.push_back(pass.stream_s);
      total.push_back(pass.open_s + pass.stream_s);
      apply_ms.insert(apply_ms.end(), pass.apply_ms.begin(),
                      pass.apply_ms.end());
      phi.push_back(pass.phi);
      rho.push_back(pass.rho);
      if (rep == 0) {
        hash = pass.hash;
      } else {
        report->Check(pass.hash == hash,
                      "repeated stream reproduces the assignment");
      }
    }
    report->Metric("setup_s", Median(setup), "s");
    report->Metric("partition_s", Median(partition), "s");
    report->Metric("total_s", Median(total), "s");
    report->Metric("step_p50_ms", Quantile(apply_ms, 0.5), "ms");
    report->Metric("phi", Median(phi), "frac");
    report->Metric("rho", Median(rho), "ratio");
    report->Metric("peak_rss_mb", first_rss_mb, "MB");
    report->Context("reps", static_cast<double>(setup.size()));
    report->Context("step_samples", static_cast<double>(apply_ms.size()));
    report->Context("step_p90_ms", Quantile(apply_ms, 0.9));
    report->Context("events_per_s",
                    static_cast<double>(input.events.size()) /
                        Median(partition));
    CheckRho(spec, Median(rho), report);

    ReplayTimes replay;
    if (Replay(spec, input, /*split=*/false, report, &replay)) {
      report->Check(replay.hash == hash,
                    "streamed assignment equals the blocking replay");
    }
    return;
  }

  StreamedPass pass;
  if (!StreamOnce(spec, input, /*time_submits=*/true, report, &pass)) return;
  const spinner::stream::IngestStats& stats = pass.stats;
  report->Metric("stream.windows", static_cast<double>(stats.windows_applied),
                 "count");
  report->Metric("stream.events_per_s",
                 static_cast<double>(stats.events_ingested) / pass.stream_s,
                 "1/s");
  report->Metric("stream.events_coalesced",
                 static_cast<double>(stats.events_coalesced), "count");
  report->Metric("stream.queue_high_water",
                 static_cast<double>(stats.queue_high_water), "count");
  report->Metric("stream.submit_blocked_s", pass.submit_s, "s");
  report->Metric("stream.staleness_p50_ms", Quantile(pass.staleness_ms, 0.5),
                 "ms");
  report->Metric("stream.staleness_p90_ms", Quantile(pass.staleness_ms, 0.9),
                 "ms");
  report->Metric("stream.apply_ms_p90", Quantile(pass.apply_ms, 0.9), "ms");

  ReplayTimes replay;
  if (!Replay(spec, input, /*split=*/true, report, &replay)) return;
  double applied_s = 0;
  for (const double ms : replay.apply_ms) applied_s += ms / 1e3;
  report->Metric("stream.prep_ms_p50", Median(replay.prep_ms), "ms");
  report->Metric("stream.refine_ms_p50", Median(replay.refine_ms), "ms");
  report->Metric("stream.tail_ms_p50", Median(replay.tail_ms), "ms");
  report->Metric("stream.refine_iterations", Median(replay.iterations),
                 "count");
  report->Metric("stream.service_overhead_ms",
                 (pass.stream_s - applied_s) * 1e3 /
                     static_cast<double>(replay.apply_ms.size()),
                 "ms");
  report->Metric("graph.delta_fold_ms_p50", Median(replay.fold_ms), "ms");
  report->Metric("graph.window_convert_ms_p50", Median(replay.convert_ms),
                 "ms");
  report->Check(replay.hash == pass.hash,
                "streamed assignment equals the blocking replay");
  CheckRho(spec, pass.rho, report);
}

}  // namespace perfbench
