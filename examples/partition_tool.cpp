// partition_tool: a complete command-line front end to the library — the
// utility an operator would script against. One uniform subcommand
// surface with shared flag parsing and per-subcommand --help:
//
//   partition_tool <subcommand> [flags]
//   partition_tool <subcommand> --help
//
//   partition   one-shot k-way partitioning of an edge-list file
//   adapt       incremental adaptation from a previous partitioning
//   rescale     elastic adaptation to a new partition count
//   metrics     score an existing partition file
//   serve       maintain a partitioning against a live edge stream
//   generate    deterministic synthetic edge list (CI smoke, demos)
//   worker      dial-in TCP shard worker (pairs with --transport=tcp)
//   list        registered partitioners and their capabilities
//
//   # Partition an edge-list file (sparse ids fine; they are compacted):
//   ./partition_tool partition --input=edges.txt --k=32 --out=parts.txt
//
//   # The same run distributed: 3 dial-in workers over TCP. Workers
//   # retry the dial, so they may be started before the coordinator:
//   ./partition_tool worker --connect=127.0.0.1:7077 --store=/tmp/w0 &
//   ./partition_tool worker --connect=127.0.0.1:7077 --store=/tmp/w1 &
//   ./partition_tool worker --connect=127.0.0.1:7077 --store=/tmp/w2 &
//   ./partition_tool partition --input=edges.txt --k=32
//       --transport=tcp --listen=127.0.0.1:7077 --workers=3
//
// Execution-shape flags (shared by partition/adapt/rescale/serve; none of
// them changes results): --shards, --threads, --transport=
// inprocess|multiprocess|tcp, --workers (worker processes for the
// off-thread transports), --listen (tcp coordinator bind address),
// --store-dir (forked workers' persistent shard store),
// --wire-max-payload (frame payload ceiling in bytes; larger messages
// stream across chunk frames).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "baselines/partitioner_registry.h"
#include "common/cli.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "elastic/policy_spec.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/remap.h"
#include "graph/stats.h"
#include "spinner/metrics.h"
#include "spinner/session.h"
#include "stream/ingestion_service.h"

using namespace spinner;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct Subcommand {
  const char* name;
  const char* summary;
  const char* help;  // flag list printed by `<subcommand> --help`
};

constexpr const char* kCommonFlags =
    "  --partitioner=NAME   partitioner to run (default spinner; see "
    "`list`)\n"
    "  --k=N                partition count (default 32)\n"
    "  --c=F                capacity slack (default 1.05)\n"
    "  --seed=N             seed for the label-drawing partitioners\n"
    "  --stream-seed=N      arrival order of the streaming baselines\n"
    "  --balance=edges|vertices\n"
    "  --shards=N --threads=N\n"
    "                       graph-store shards / OS threads (results never "
    "change)\n"
    "  --transport=inprocess|multiprocess|tcp\n"
    "                       where the shard workers run (default "
    "inprocess)\n"
    "  --workers=N          worker processes (required for tcp)\n"
    "  --listen=HOST:PORT   tcp: coordinator bind address (default "
    "127.0.0.1:0)\n"
    "  --store-dir=DIR      forked workers: persistent shard store root\n"
    "  --wire-max-payload=N frame payload ceiling in bytes\n"
    "  --rpc-timeout-ms=N   per-recv worker liveness deadline (default "
    "120000)\n"
    "  --heartbeat-ms=N     liveness poll period / recovery backoff base "
    "(default 1000)\n"
    "  --recover=N          superstep retries after a worker failure "
    "(default 0 = off)\n";

const Subcommand kSubcommands[] = {
    {"partition", "one-shot k-way partitioning of an edge-list file",
     "usage: partition_tool partition --input=EDGES [flags]\n"
     "  --input=FILE         edge-list file (required)\n"
     "  --out=FILE           write the partitioning here\n"},
    {"adapt", "incremental adaptation from a previous partitioning",
     "usage: partition_tool adapt --input=EDGES --previous=PARTS [flags]\n"
     "  --input=FILE         edge-list file (required)\n"
     "  --previous=FILE      previous partitioning (required)\n"
     "  --out=FILE           write the adapted partitioning here\n"
     "  --policy=SPEC        after adapting, let an autoscaling policy\n"
     "                       decide whether to rescale too;\n"
     "                       spec: name[:key=value,...], see --policy=help\n"
     "  --capacity=N         machines available to the policy (0 = "
     "unbounded)\n"},
    {"rescale", "elastic adaptation to a new partition count",
     "usage: partition_tool rescale --input=EDGES --previous=PARTS "
     "--new-k=N [flags]\n"
     "  --input=FILE         edge-list file (required)\n"
     "  --previous=FILE      previous partitioning (required)\n"
     "  --new-k=N            target partition count\n"
     "  --policy=SPEC        let an autoscaling policy pick the target k\n"
     "                       instead of --new-k;\n"
     "                       spec: name[:key=value,...], see --policy=help\n"
     "  --capacity=N         machines available to the policy (0 = "
     "unbounded)\n"
     "  --out=FILE           write the rescaled partitioning here\n"},
    {"metrics", "score an existing partition file",
     "usage: partition_tool metrics --input=EDGES --parts=PARTS --k=N\n"
     "  --input=FILE         edge-list file (required)\n"
     "  --parts=FILE         partitioning to score (required)\n"},
    {"serve", "maintain a partitioning against a live edge stream",
     "usage: partition_tool serve --input=EDGES [flags] < events\n"
     "  --input=FILE         initial edge-list file (required)\n"
     "  --watermark=N        re-partition every N events (default 256)\n"
     "  --checkpoint=FILE    incremental checkpoint base path\n"
     "  --out=FILE           write the final partitioning on EOF\n"
     "  events on stdin: add U V | remove U V | vertices N\n"},
    {"generate", "deterministic synthetic edge list (CI smoke, demos)",
     "usage: partition_tool generate --out=EDGES [flags]\n"
     "  --out=FILE           output edge-list file (required)\n"
     "  --vertices=N         vertex count (default 5000)\n"
     "  --degree=N           mean degree (default 6)\n"
     "  --seed=N             generator seed (default 42)\n"},
    {"worker", "dial-in TCP shard worker (pairs with --transport=tcp)",
     "usage: partition_tool worker --connect=HOST:PORT [flags]\n"
     "  --connect=HOST:PORT  coordinator address (required)\n"
     "  --store=DIR          persistent shard store root (zero-download\n"
     "                       resume across re-dials; empty = in-memory)\n"
     "  --capacity=N         advertised shard-hosting capacity (default "
     "1)\n"
     "  --dial-timeout-ms=N  how long to retry the dial (default 30000)\n"
     "  --wire-max-payload=N must match the coordinator's setting\n"
     "  --fail-after-scores=N\n"
     "                       chaos hook: _exit(3) in the Nth score "
     "superstep\n"
     "  serves runs until the coordinator closes the connection; exits 0\n"},
    {"list", "registered partitioners and their capabilities",
     "usage: partition_tool list\n"},
};

int Usage() {
  std::fprintf(stderr, "usage: partition_tool <subcommand> [flags]\n\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(stderr, "  %-10s %s\n", sub.name, sub.summary);
  }
  std::fprintf(stderr,
               "\n`partition_tool <subcommand> --help` lists the flags of "
               "one subcommand.\n");
  return 2;
}

int Help(const Subcommand& sub) {
  std::fprintf(stderr, "%s", sub.help);
  if (std::string(sub.name) == "partition" ||
      std::string(sub.name) == "adapt" ||
      std::string(sub.name) == "rescale" ||
      std::string(sub.name) == "serve") {
    std::fprintf(stderr, "common flags:\n%s", kCommonFlags);
  }
  return 0;
}

struct LoadedGraph {
  CsrGraph converted;
  int64_t num_vertices = 0;
};

Result<LoadedGraph> Load(const std::string& path) {
  SPINNER_ASSIGN_OR_RETURN(EdgeList edges, graph_io::ReadEdgeList(path));
  if (edges.empty()) return Status::InvalidArgument("no edges in " + path);
  CompactVertexIds(&edges);  // tolerate sparse ids
  const int64_t n = MaxVertexId(edges) + 1;
  LoadedGraph out;
  SPINNER_ASSIGN_OR_RETURN(out.converted,
                           ConvertToWeightedUndirected(n, edges));
  out.num_vertices = n;
  return out;
}

/// Shared flag parsing for every subcommand that runs a partitioner.
PartitionerOptions OptionsFrom(const CommandLine& cli) {
  PartitionerOptions options;
  options.seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  // Streaming partitioners are seeded by arrival order; 0 (the default)
  // keeps the natural vertex-id order.
  options.stream_seed =
      static_cast<uint64_t>(cli.GetInt("stream-seed", 0));
  options.spinner.num_partitions = static_cast<int>(cli.GetInt("k", 32));
  options.spinner.additional_capacity = cli.GetDouble("c", 1.05);
  // Execution shape: shards of the graph store, OS threads driving them,
  // and worker processes of the off-thread transports. Pure parallelism
  // knobs — the computed partitioning is identical for every choice.
  options.execution.num_shards =
      static_cast<int>(cli.GetInt("shards", 0));
  options.execution.num_threads =
      static_cast<int>(cli.GetInt("threads", 0));
  options.execution.num_workers = static_cast<int>(cli.GetInt("workers", 0));
  const std::string transport = cli.GetString("transport", "inprocess");
  if (transport == "multiprocess") {
    options.execution.mode = ExecutionMode::kMultiProcess;
  } else if (transport == "tcp") {
    options.execution.mode = ExecutionMode::kTcp;
    options.execution.listen_address =
        cli.GetString("listen", "127.0.0.1:0");
    options.execution.handshake_timeout_ms =
        cli.GetInt("handshake-timeout-ms", 30'000);
  } else if (transport != "inprocess") {
    std::fprintf(stderr,
                 "error: --transport must be inprocess|multiprocess|tcp "
                 "(got %s)\n",
                 transport.c_str());
    std::exit(2);
  }
  options.execution.worker_store_dir = cli.GetString("store-dir", "");
  // Failure detection/recovery knobs (cross-process transports only; the
  // in-process path ignores them). Defaults match ExecutionOptions.
  options.execution.rpc_timeout_ms = cli.GetInt("rpc-timeout-ms", 120'000);
  options.execution.heartbeat_period_ms = cli.GetInt("heartbeat-ms", 1'000);
  options.execution.max_recovery_attempts =
      static_cast<int>(cli.GetInt("recover", 0));
  // Cross-process transport: frame payload ceiling in bytes; larger
  // messages stream across chunk frames (0 = transport default). The
  // wire-stress CI lane forces this tiny to execute every chunk path.
  // Negative values would wrap through the unsigned cast into a silently
  // clamped huge limit; reject them here with a real diagnostic.
  const int64_t wire_max_payload = cli.GetInt("wire-max-payload", 0);
  if (wire_max_payload < 0) {
    std::fprintf(stderr,
                 "error: --wire-max-payload must be >= 0 (got %lld)\n",
                 static_cast<long long>(wire_max_payload));
    std::exit(2);
  }
  options.execution.wire_max_payload =
      static_cast<uint64_t>(wire_max_payload);
  if (cli.GetString("balance", "edges") == "vertices") {
    options.spinner.balance_mode = BalanceMode::kVertices;
    options.balance_on_edges = false;
  }
  return options;
}

int Report(const CsrGraph& g, const std::vector<PartitionId>& labels, int k,
           double c) {
  auto m = ComputeMetrics(g, labels, k, c);
  if (!m.ok()) return Fail(m.status());
  std::printf("k=%d phi=%.4f rho=%.4f cut=%lld total=%lld\n", k, m->phi,
              m->rho, static_cast<long long>(m->cut_weight),
              static_cast<long long>(m->total_weight));
  return 0;
}

/// One-shot policy evaluation for `adapt`/`rescale` --policy=SPEC: builds
/// the same signals the ElasticController publishes from a metrics pass
/// over `labels`, asks the policy once, prints the verdict, and returns
/// the k the partitioning should run at (the current k on hold). The spec
/// grammar is shared with the simulator's policy lab via
/// elastic::MakePolicy. Note this is a single evaluation: a
/// hysteresis=N (N>1) wrapper can never fire here.
Result<int> PolicyTargetK(const std::string& spec, const CsrGraph& g,
                          const std::vector<PartitionId>& labels, int k,
                          double c, int available_capacity) {
  SPINNER_ASSIGN_OR_RETURN(std::unique_ptr<elastic::ScalingPolicy> policy,
                           elastic::MakePolicy(spec));
  SPINNER_ASSIGN_OR_RETURN(PartitionMetrics m,
                           ComputeMetrics(g, labels, k, c));
  elastic::ScalingSignals signals;
  signals.current_k = k;
  signals.phi = m.phi;
  signals.rho = m.rho;
  signals.score = m.score;
  for (int64_t load : m.loads) {
    if (load > signals.max_load) signals.max_load = load;
  }
  signals.total_weight = m.total_weight;
  signals.available_capacity = available_capacity;
  const elastic::ScalingDecision decision = policy->Decide(signals);
  if (decision.acts()) {
    std::printf("policy %s: %s k=%d -> %d  (%s)\n", policy->name().c_str(),
                elastic::ToString(decision.action), k, decision.target_k,
                decision.reason.c_str());
    return decision.target_k;
  }
  std::printf("policy %s: hold at k=%d  (%s)\n", policy->name().c_str(), k,
              decision.reason.c_str());
  return k;
}

int RunWorker(const CommandLine& cli) {
  const std::string connect = cli.GetString("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "error: worker requires --connect=HOST:PORT\n");
    return 2;
  }
  const int64_t wire_max_payload = cli.GetInt("wire-max-payload", 0);
  if (wire_max_payload < 0) {
    std::fprintf(stderr, "error: --wire-max-payload must be >= 0\n");
    return 2;
  }
  dist::WorkerLoopOptions loop;
  loop.store_dir = cli.GetString("store", "");
  loop.capacity = cli.GetInt("capacity", 1);
  loop.dial_timeout_ms = cli.GetInt("dial-timeout-ms", 30'000);
  loop.fail_after_score_steps =
      static_cast<int32_t>(cli.GetInt("fail-after-scores", -1));
  if (loop.capacity < 1) {
    std::fprintf(stderr, "error: --capacity must be >= 1\n");
    return 2;
  }
  return dist::RunTcpWorker(
      connect,
      dist::TransportOptions::Resolve(
          static_cast<uint64_t>(wire_max_payload)),
      loop);
}

int RunServe(const CommandLine& cli) {
  // Long-lived mode: partition --input once, then keep the partitioning
  // maintained against an edge stream read from stdin, one event per
  // line ("add U V" | "remove U V" | "vertices N"; '#' comments). Ids
  // are used as-is — dense ids as produced by `generate` are expected.
  // EOF drains the stream, reports, and writes --out.
  const std::string input = cli.GetString("input", "");
  if (input.empty()) return Usage();
  auto edges = graph_io::ReadEdgeList(input);
  if (!edges.ok()) return Fail(edges.status());
  const int64_t n = MaxVertexId(*edges) + 1;
  const PartitionerOptions options = OptionsFrom(cli);

  SessionOptions session_options;
  session_options.execution = options.execution;
  PartitioningSession session(options.spinner, session_options);
  Status opened = session.Open(n, std::move(*edges), /*directed=*/true);
  if (!opened.ok()) return Fail(opened);
  std::printf("serving: |V|=%lld |E|=%lld k=%d phi=%.4f rho=%.4f\n",
              static_cast<long long>(session.num_vertices()),
              static_cast<long long>(session.num_edges()),
              session.num_partitions(),
              session.last_result().metrics.phi,
              session.last_result().metrics.rho);

  stream::IngestionOptions ingest;
  ingest.policy = std::make_unique<stream::EventCountPolicy>(
      cli.GetInt("watermark", 256));
  ingest.checkpoint_base_path = cli.GetString("checkpoint", "");
  ingest.on_apply = [](const stream::IngestStats& stats) {
    std::printf("window %lld: %lld events in (%lld coalesced away) "
                "phi=%.4f rho=%.4f apply=%.1fms staleness=%.1fms\n",
                static_cast<long long>(stats.windows_applied),
                static_cast<long long>(stats.events_ingested),
                static_cast<long long>(stats.events_coalesced),
                stats.last_phi, stats.last_rho,
                static_cast<double>(stats.last_apply_micros) / 1000.0,
                static_cast<double>(stats.last_staleness_micros) / 1000.0);
    std::fflush(stdout);
    return true;
  };
  stream::IngestionService service(&session, std::move(ingest));
  Status started = service.Start();
  if (!started.ok()) return Fail(started);

  std::string line;
  int64_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string op;
    if (!(fields >> op) || op[0] == '#') continue;
    Status submitted = Status::OK();
    long long u = 0;
    long long v = 0;
    if (op == "add" && fields >> u >> v) {
      submitted = service.Submit(stream::EdgeEvent::AddEdge(u, v));
    } else if (op == "remove" && fields >> u >> v) {
      submitted = service.Submit(stream::EdgeEvent::RemoveEdge(u, v));
    } else if (op == "vertices" && fields >> u) {
      submitted = service.Submit(stream::EdgeEvent::AddVertices(u));
    } else {
      std::fprintf(stderr,
                   "stdin:%lld: unrecognized event \"%s\" (want add U V "
                   "| remove U V | vertices N)\n",
                   static_cast<long long>(line_number), line.c_str());
      continue;
    }
    if (!submitted.ok()) break;  // the service died: Stop() has the why
  }

  Status stopped = service.Stop();  // drain + apply the final window
  if (!stopped.ok()) return Fail(stopped);
  const stream::IngestStats stats = service.stats();
  std::printf("stream done: %lld events, %lld windows, %lld coalesced "
              "away, queue high-water %lld\n",
              static_cast<long long>(stats.events_ingested),
              static_cast<long long>(stats.windows_applied),
              static_cast<long long>(stats.events_coalesced),
              static_cast<long long>(stats.queue_high_water));
  std::printf("final: |V|=%lld |E|=%lld phi=%.4f rho=%.4f\n",
              static_cast<long long>(session.num_vertices()),
              static_cast<long long>(session.num_edges()),
              session.last_result().metrics.phi,
              session.last_result().metrics.rho);
  const std::string out = cli.GetString("out", "");
  if (!out.empty()) {
    Status s = graph_io::WritePartitioning(out, session.assignment());
    if (!s.ok()) return Fail(s);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  CommandLine cli;
  if (!cli.Parse(argc, argv).ok()) return Usage();
  // CommandLine ignores unknown flags, so a script still passing the
  // removed --processes would silently run in-process; fail it instead.
  if (cli.Has("processes")) {
    std::fprintf(stderr,
                 "error: --processes was removed; use "
                 "--transport=multiprocess --workers=N\n");
    return 2;
  }

  const Subcommand* sub = nullptr;
  for (const Subcommand& candidate : kSubcommands) {
    if (command == candidate.name) sub = &candidate;
  }
  if (sub == nullptr) return Usage();
  if (cli.GetBool("help", false)) return Help(*sub);

  if (command == "generate") {
    // Deterministic Watts-Strogatz edge list (the paper's scalability
    // substrate) — lets CI scripts smoke-test the tool with no fixture.
    const std::string out = cli.GetString("out", "");
    if (out.empty()) { Help(*sub); return 2; }
    auto generated = WattsStrogatz(
        cli.GetInt("vertices", 5000),
        static_cast<int>(cli.GetInt("degree", 6)) / 2, 0.3,
        static_cast<uint64_t>(cli.GetInt("seed", 42)));
    if (!generated.ok()) return Fail(generated.status());
    Status s = graph_io::WriteEdgeList(out, generated->edges);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %lld vertices / %zu edges to %s\n",
                static_cast<long long>(generated->num_vertices),
                generated->edges.size(), out.c_str());
    return 0;
  }

  if (command == "list") {
    for (const std::string& name : PartitionerRegistry::Names()) {
      auto p = PartitionerRegistry::Create(name);
      std::printf("%-12s%s%s\n", name.c_str(),
                  p.ok() && (*p)->SupportsRepartition() ? " [adapt]" : "",
                  p.ok() && (*p)->SupportsRescale() ? " [rescale]" : "");
    }
    return 0;
  }

  if (command == "worker") return RunWorker(cli);
  if (command == "serve") return RunServe(cli);

  const std::string input = cli.GetString("input", "");
  if (input.empty()) { Help(*sub); return 2; }

  auto loaded = Load(input);
  if (!loaded.ok()) return Fail(loaded.status());
  std::printf("graph: %s\n",
              ToString(ComputeGraphStats(loaded->converted)).c_str());

  const PartitionerOptions options = OptionsFrom(cli);
  const int k = options.spinner.num_partitions;
  const double c = options.spinner.additional_capacity;
  const std::string partitioner_name =
      cli.GetString("partitioner", "spinner");
  auto partitioner = PartitionerRegistry::Create(partitioner_name, options);
  if (!partitioner.ok()) return Fail(partitioner.status());

  Result<std::vector<PartitionId>> labels =
      Status::Unimplemented("no command");
  int result_k = k;  // rescale reports against the new partition count
  if (command == "partition") {
    labels = (*partitioner)->Partition(loaded->converted, k);
  } else if (command == "adapt" || command == "rescale") {
    auto previous = graph_io::ReadPartitioning(
        cli.GetString("previous", ""), loaded->num_vertices);
    if (!previous.ok()) return Fail(previous.status());
    const std::string policy_spec = cli.GetString("policy", "");
    if (policy_spec == "help") {
      std::fprintf(stderr, "%s\n", elastic::PolicySpecHelp().c_str());
      return 0;
    }
    if (command == "adapt") {
      if (!(*partitioner)->SupportsRepartition()) {
        return Fail(Status::Unimplemented(
            partitioner_name + " does not support adapt"));
      }
      labels = (*partitioner)->Repartition(loaded->converted, k, *previous);
      if (labels.ok() && !policy_spec.empty()) {
        // Post-adapt elasticity check: did the drift that adapt absorbed
        // push the cluster past the policy's comfort zone?
        auto target = PolicyTargetK(
            policy_spec, loaded->converted, *labels, k, c,
            static_cast<int>(cli.GetInt("capacity", 0)));
        if (!target.ok()) return Fail(target.status());
        if (*target != k) {
          if (!(*partitioner)->SupportsRescale()) {
            return Fail(Status::Unimplemented(
                partitioner_name + " does not support rescale"));
          }
          result_k = *target;
          labels = (*partitioner)->Rescale(loaded->converted, *labels, k,
                                           result_k);
        }
      }
    } else {
      if (!(*partitioner)->SupportsRescale()) {
        return Fail(Status::Unimplemented(
            partitioner_name + " does not support rescale"));
      }
      if (!policy_spec.empty()) {
        // The policy picks the target from the previous partitioning's
        // signals; --new-k is ignored (one decision, not a mandate).
        if (cli.Has("new-k")) {
          std::fprintf(stderr,
                       "note: --policy decides the target; ignoring "
                       "--new-k\n");
        }
        auto target = PolicyTargetK(
            policy_spec, loaded->converted, *previous, k, c,
            static_cast<int>(cli.GetInt("capacity", 0)));
        if (!target.ok()) return Fail(target.status());
        result_k = *target;
        if (result_k == k) {
          labels = std::move(*previous);  // hold: nothing to migrate
        } else {
          labels = (*partitioner)->Rescale(loaded->converted, *previous, k,
                                           result_k);
        }
      } else {
        result_k = static_cast<int>(cli.GetInt("new-k", k));
        labels = (*partitioner)->Rescale(loaded->converted, *previous, k,
                                         result_k);
      }
    }
  } else if (command == "metrics") {
    auto parts = graph_io::ReadPartitioning(cli.GetString("parts", ""),
                                            loaded->num_vertices);
    if (!parts.ok()) return Fail(parts.status());
    return Report(loaded->converted, *parts, k, c);
  } else {
    return Usage();
  }

  if (!labels.ok()) return Fail(labels.status());
  const int code = Report(loaded->converted, *labels, result_k, c);
  if (code != 0) return code;
  const std::string out = cli.GetString("out", "");
  if (!out.empty()) {
    Status s = graph_io::WritePartitioning(out, *labels);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}
