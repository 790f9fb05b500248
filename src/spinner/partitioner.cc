#include "spinner/partitioner.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/sharded_store.h"
#include "pregel/topology.h"
#include "spinner/initial_assignment.h"
#include "spinner/program.h"
#include "spinner/sharded_program.h"

namespace spinner {

SpinnerPartitioner::SpinnerPartitioner(const SpinnerConfig& config)
    : config_(config) {}

Result<PartitionResult> SpinnerPartitioner::Partition(
    const CsrGraph& converted) const {
  std::vector<PartitionId> no_labels(converted.NumVertices(), kNoPartition);
  return RunOnGraph(converted, converted, std::move(no_labels),
                    config_.num_partitions, /*with_conversion=*/false);
}

Result<PartitionResult> SpinnerPartitioner::PartitionDirected(
    int64_t num_vertices, const EdgeList& directed) const {
  // The conversion drops self-loops and duplicates itself.
  SPINNER_ASSIGN_OR_RETURN(CsrGraph converted,
                           ConvertToWeightedUndirected(num_vertices, directed));
  std::vector<PartitionId> no_labels(num_vertices, kNoPartition);
  if (config_.in_engine_conversion) {
    // The engine converts the raw graph itself, so it gets the
    // deduplicated, loop-free edges.
    EdgeList dedup = directed;
    RemoveSelfLoops(&dedup);
    SortAndDedup(&dedup);
    SPINNER_ASSIGN_OR_RETURN(CsrGraph raw_directed,
                             CsrGraph::FromEdges(num_vertices, dedup));
    return RunOnGraph(raw_directed, converted, std::move(no_labels),
                      config_.num_partitions, /*with_conversion=*/true);
  }
  return RunOnGraph(converted, converted, std::move(no_labels),
                    config_.num_partitions, /*with_conversion=*/false);
}

Result<PartitionResult> SpinnerPartitioner::Repartition(
    const CsrGraph& new_converted,
    std::span<const PartitionId> previous) const {
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ExtendForNewVertices(new_converted, previous, config_.num_partitions));
  return RunOnGraph(new_converted, new_converted, std::move(initial),
                    config_.num_partitions, /*with_conversion=*/false);
}

Result<PartitionResult> SpinnerPartitioner::Rescale(
    const CsrGraph& converted, std::span<const PartitionId> previous,
    int new_num_partitions) const {
  if (static_cast<int64_t>(previous.size()) != converted.NumVertices()) {
    return Status::InvalidArgument(
        "previous assignment must cover every vertex");
  }
  const int old_k = config_.num_partitions;
  std::vector<PartitionId> initial;
  if (new_num_partitions > old_k) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticExpand(previous, old_k, new_num_partitions,
                               config_.seed));
  } else if (new_num_partitions < old_k) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticShrink(previous, old_k, new_num_partitions,
                               config_.seed));
  } else {
    initial.assign(previous.begin(), previous.end());
  }
  return RunOnGraph(converted, converted, std::move(initial),
                    new_num_partitions, /*with_conversion=*/false);
}

Result<PartitionResult> SpinnerPartitioner::RunOnGraph(
    const CsrGraph& engine_graph, const CsrGraph& converted,
    std::vector<PartitionId> initial_labels, int k,
    bool with_conversion) const {
  SpinnerConfig run_config = config_;
  run_config.num_partitions = k;
  SPINNER_RETURN_IF_ERROR(run_config.Validate());
  // Fold the nested execution options into the deprecated flat fields the
  // downstream resolvers (ResolveNumShards/ResolveNumThreads) still read.
  const ExecutionOptions execution = run_config.ResolvedExecution();
  if (execution.num_shards > 0) run_config.num_shards = execution.num_shards;
  if (execution.num_threads > 0) {
    run_config.num_threads = execution.num_threads;
  }
  if (execution.wire_max_payload != 0) {
    run_config.wire_max_payload = execution.wire_max_payload;
  }
  if (engine_graph.NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }

  PartitionResult result;
  result.num_partitions = k;
  if (with_conversion) {
    // In-engine conversion needs message-driven NeighborDiscovery
    // (§IV.A.1): run on the Pregel BSP substrate.
    SPINNER_ASSIGN_OR_RETURN(
        result, RunOnEngine(engine_graph, std::move(initial_labels),
                            run_config));
  } else {
    // Pre-converted graphs run shard-parallel over a ShardedGraphStore;
    // shard/thread/process counts never change the result, so a throwaway
    // single-run store is equivalent to a session's persistent one.
    SPINNER_ASSIGN_OR_RETURN(
        ShardedGraphStore store,
        ShardedGraphStore::Build(
            engine_graph,
            ResolveNumShards(run_config, engine_graph.NumVertices())));
    ShardedRunResult run;
    if (execution.mode != ExecutionMode::kInProcess) {
      // Off-thread execution: shards live in ShardWorker processes
      // speaking the dist wire protocol — forked over socketpairs
      // (kMultiProcess) or dialing in over TCP (kTcp).
      dist::MultiProcessOptions mp;
      mp.num_workers = execution.num_workers > 0 ? execution.num_workers
                                                 : run_config.num_processes;
      mp.transport =
          dist::TransportOptions::Resolve(execution.wire_max_payload);
      mp.worker_store_dir = execution.worker_store_dir;
      mp.rpc_timeout_ms = execution.rpc_timeout_ms;
      mp.heartbeat_period_ms = execution.heartbeat_period_ms;
      mp.max_recovery_attempts = execution.max_recovery_attempts;
      std::unique_ptr<dist::WorkerRegistry> registry;
      if (execution.mode == ExecutionMode::kTcp) {
        // One-shot run: bind a throwaway registry and wait for dial-ins.
        dist::RegistryOptions registry_options;
        if (!execution.listen_address.empty()) {
          registry_options.listen_address = execution.listen_address;
        }
        registry_options.handshake_timeout_ms =
            execution.handshake_timeout_ms;
        SPINNER_ASSIGN_OR_RETURN(registry,
                                 dist::WorkerRegistry::Listen(
                                     registry_options));
        mp.worker_transport = registry.get();
      }
      SPINNER_ASSIGN_OR_RETURN(
          run, dist::RunMultiProcessSpinner(
                   run_config, &store, std::move(initial_labels), mp,
                   observer_.active() ? &observer_ : nullptr));
    } else {
      ThreadPool pool(ResolveNumThreads(run_config, store.num_shards()));
      SPINNER_ASSIGN_OR_RETURN(
          run,
          RunShardedSpinner(run_config, &store, std::move(initial_labels),
                            &pool,
                            observer_.active() ? &observer_ : nullptr));
    }
    result.iterations = run.iterations;
    result.converged = run.converged;
    result.cancelled = run.cancelled;
    result.history = std::move(run.history);
    result.run_stats = std::move(run.run_stats);
    result.wire = std::move(run.wire);
    result.schedule = run.schedule;
    result.assignment = std::move(store.labels());
  }
  result.num_partitions = k;

  BalanceSpec spec;
  spec.mode = run_config.balance_mode;
  spec.partition_weights = run_config.partition_weights;
  SPINNER_ASSIGN_OR_RETURN(
      result.metrics,
      ComputeMetricsEx(converted, result.assignment, k,
                       run_config.additional_capacity, spec));
  return result;
}

Result<PartitionResult> SpinnerPartitioner::RunOnEngine(
    const CsrGraph& engine_graph, std::vector<PartitionId> initial_labels,
    const SpinnerConfig& run_config) const {
  pregel::EngineConfig engine_config;
  // Worker-count fallback order: explicit workers, then the sharding
  // knobs (so --shards/--threads mean the same thing on both substrates),
  // then one worker per hardware thread.
  engine_config.num_workers =
      run_config.num_workers > 0   ? run_config.num_workers
      : run_config.num_shards > 0  ? run_config.num_shards
      : run_config.num_threads > 0
          ? run_config.num_threads
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  engine_config.num_threads = run_config.num_threads;
  // Phase supersteps: 2 conversion + 1 init + 2 per iteration (+ slack).
  engine_config.max_supersteps =
      3 + 2 * static_cast<int64_t>(run_config.max_iterations) + 4;

  SpinnerEngine engine(
      engine_graph, engine_config,
      pregel::HashPlacement(engine_config.num_workers),
      [](VertexId) { return SpinnerVertexValue{}; },
      [](VertexId, VertexId, EdgeWeight w) {
        return SpinnerEdgeValue{w, kNoPartition};
      });

  SpinnerProgram program(run_config, std::move(initial_labels),
                         /*start_with_conversion=*/true);
  if (observer_.active()) program.set_observer(&observer_);
  pregel::RunStats run_stats = engine.Run(program);

  PartitionResult result;
  result.num_partitions = run_config.num_partitions;
  result.iterations = program.iterations();
  result.converged = program.converged();
  result.cancelled = program.cancelled();
  result.history = program.history();
  result.run_stats = std::move(run_stats);
  result.assignment.resize(engine_graph.NumVertices());
  engine.ForEachVertex([&result](VertexId v, const SpinnerVertexValue& val) {
    result.assignment[v] = val.label;
  });
  return result;
}

}  // namespace spinner
