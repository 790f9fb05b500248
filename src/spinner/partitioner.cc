#include "spinner/partitioner.h"

#include <memory>
#include <utility>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "graph/conversion.h"
#include "graph/sharded_store.h"
#include "spinner/initial_assignment.h"
#include "spinner/sharded_program.h"

namespace spinner {

SpinnerPartitioner::SpinnerPartitioner(const SpinnerConfig& config)
    : config_(config) {}

Result<PartitionResult> SpinnerPartitioner::Partition(
    const CsrGraph& converted) const {
  std::vector<PartitionId> no_labels(converted.NumVertices(), kNoPartition);
  return RunOnGraph(converted, std::move(no_labels), config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::PartitionDirected(
    int64_t num_vertices, const EdgeList& directed) const {
  // The conversion drops self-loops and duplicates itself.
  SPINNER_ASSIGN_OR_RETURN(CsrGraph converted,
                           ConvertToWeightedUndirected(num_vertices, directed));
  return Partition(converted);
}

Result<PartitionResult> SpinnerPartitioner::Repartition(
    const CsrGraph& new_converted,
    std::span<const PartitionId> previous) const {
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ExtendForNewVertices(new_converted.WeightedDegrees(), previous,
                           config_.num_partitions));
  return RunOnGraph(new_converted, std::move(initial),
                    config_.num_partitions);
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
  return RunOnGraph(converted, std::move(initial), new_num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::RunOnGraph(
    const CsrGraph& converted, std::vector<PartitionId> initial_labels,
    int k) const {
  SpinnerConfig run_config = config_;
  run_config.num_partitions = k;
  SPINNER_RETURN_IF_ERROR(run_config.Validate());
  const ExecutionOptions& execution = run_config.execution;
  if (converted.NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }

  // Shard/thread/process counts never change the result, so a throwaway
  // single-run store is equivalent to a session's persistent one.
  SPINNER_ASSIGN_OR_RETURN(
      ShardedGraphStore store,
      ShardedGraphStore::Build(
          converted, ResolveNumShards(run_config, converted.NumVertices())));
  ShardedRunResult run;
  if (execution.mode != ExecutionMode::kInProcess) {
    // Off-thread execution: shards live in ShardWorker processes speaking
    // the dist wire protocol — forked over socketpairs (kMultiProcess) or
    // dialing in over TCP (kTcp).
    dist::MultiProcessOptions mp = dist::MultiProcessOptionsFor(execution);
    std::unique_ptr<dist::WorkerRegistry> registry;
    if (execution.mode == ExecutionMode::kTcp) {
      // One-shot run: bind a throwaway registry and wait for dial-ins.
      dist::RegistryOptions registry_options;
      if (!execution.listen_address.empty()) {
        registry_options.listen_address = execution.listen_address;
      }
      registry_options.handshake_timeout_ms = execution.handshake_timeout_ms;
      SPINNER_ASSIGN_OR_RETURN(registry,
                               dist::WorkerRegistry::Listen(registry_options));
      mp.worker_transport = registry.get();
    }
    SPINNER_ASSIGN_OR_RETURN(
        run, dist::RunMultiProcessSpinner(
                 run_config, &store, std::move(initial_labels), mp,
                 observer_.active() ? &observer_ : nullptr));
  } else {
    ThreadPool pool(ResolveNumThreads(run_config, store.num_shards()));
    SPINNER_ASSIGN_OR_RETURN(
        run, RunShardedSpinner(run_config, &store, std::move(initial_labels),
                               &pool,
                               observer_.active() ? &observer_ : nullptr));
  }

  PartitionResult result;
  result.num_partitions = k;
  result.iterations = run.iterations;
  result.converged = run.converged;
  result.cancelled = run.cancelled;
  result.history = std::move(run.history);
  result.run_stats = std::move(run.run_stats);
  result.wire = std::move(run.wire);
  result.schedule = run.schedule;
  result.assignment = std::move(store.labels());

  BalanceSpec spec;
  spec.mode = run_config.balance_mode;
  spec.partition_weights = run_config.partition_weights;
  SPINNER_ASSIGN_OR_RETURN(
      result.metrics,
      ComputeMetricsEx(converted, result.assignment, k,
                       run_config.additional_capacity, spec));
  return result;
}

}  // namespace spinner
