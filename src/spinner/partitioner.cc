#include "spinner/partitioner.h"

#include <memory>
#include <utility>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "dist/registry.h"
#include "graph/conversion.h"
#include "graph/sharded_store.h"
#include "spinner/initial_assignment.h"
#include "spinner/sharded_program.h"

namespace spinner {

ExecutionResources::~ExecutionResources() = default;

ThreadPool* ExecutionResources::Pool(const SpinnerConfig& config) {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(ResolveNumThreads(config));
  }
  return pool_.get();
}

Result<dist::WorkerRegistry*> ExecutionResources::Registry(
    const ExecutionOptions& execution) {
  if (registry_ == nullptr) {
    dist::RegistryOptions options;
    if (!execution.listen_address.empty()) {
      options.listen_address = execution.listen_address;
    }
    options.handshake_timeout_ms = execution.handshake_timeout_ms;
    SPINNER_ASSIGN_OR_RETURN(registry_, dist::WorkerRegistry::Listen(options));
  }
  return registry_.get();
}

Result<PartitionResult> RunSpinner(const SpinnerConfig& config, int k,
                                   ShardedGraphStore* store,
                                   std::vector<PartitionId> initial_labels,
                                   ExecutionResources* resources,
                                   const ProgressObserver& observer) {
  SpinnerConfig run_config = config;
  run_config.num_partitions = k;
  SPINNER_RETURN_IF_ERROR(run_config.Validate());
  const ExecutionOptions& execution = run_config.execution;
  const ProgressObserver* watch = observer.active() ? &observer : nullptr;
  ShardedRunResult run;
  if (execution.mode == ExecutionMode::kInProcess) {
    SPINNER_ASSIGN_OR_RETURN(
        run, RunShardedSpinner(run_config, store, std::move(initial_labels),
                               resources->Pool(run_config), watch));
  } else {
    // Off-thread execution: the coordinator drives the identical superstep
    // schedule over ShardWorker processes speaking the dist wire protocol —
    // forked over socketpairs (kMultiProcess) or dialing in over TCP
    // (kTcp) — so the outcome is bit-identical to the in-process path.
    dist::MultiProcessOptions mp = dist::MultiProcessOptionsFor(execution);
    if (execution.mode == ExecutionMode::kTcp) {
      SPINNER_ASSIGN_OR_RETURN(mp.worker_transport,
                               resources->Registry(execution));
    }
    SPINNER_ASSIGN_OR_RETURN(
        run, dist::RunMultiProcessSpinner(run_config, store,
                                          std::move(initial_labels), mp,
                                          watch));
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
  result.assignment = store->labels();
  SPINNER_ASSIGN_OR_RETURN(
      result.metrics,
      ComputeMetricsEx(*store, result.assignment, k,
                       run_config.additional_capacity,
                       BalanceSpecOf(run_config)));
  return result;
}

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
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ElasticRelabel(previous, config_.num_partitions, new_num_partitions,
                     config_.seed));
  return RunOnGraph(converted, std::move(initial), new_num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::RunOnGraph(
    const CsrGraph& converted, std::vector<PartitionId> initial_labels,
    int k) const {
  // Shard/thread/process counts never change the result, so a throwaway
  // single-run store and resources are equivalent to a session's
  // persistent ones.
  SPINNER_ASSIGN_OR_RETURN(
      ShardedGraphStore store,
      ShardedGraphStore::Build(
          converted, ResolveNumShards(config_, converted.NumVertices())));
  ExecutionResources resources;
  return RunSpinner(config_, k, &store, std::move(initial_labels),
                    &resources, /*observer=*/{});
}

}  // namespace spinner
