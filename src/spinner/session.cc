#include "spinner/session.h"

#include <utility>

#include "common/string_util.h"
#include "dist/coordinator.h"
#include "dist/registry.h"
#include "graph/binary_io.h"
#include "spinner/initial_assignment.h"
#include "spinner/sharded_program.h"

namespace spinner {

PartitioningSession::PartitioningSession(const SpinnerConfig& config,
                                         SessionOptions options)
    : config_(config),
      options_(options),
      init_status_(config.Validate()),
      current_k_(config.num_partitions) {
  config_.execution = MergedExecution(options_.execution, config_.execution);
  if (init_status_.ok()) init_status_ = config_.Validate();
}

PartitioningSession::~PartitioningSession() = default;

Status PartitioningSession::CheckReady() const {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (!open_) {
    return Status::FailedPrecondition(
        "session is not open; call Open() or Restore() first");
  }
  return Status::OK();
}

Result<ShardedGraphStore> PartitioningSession::BuildStore(
    int64_t num_vertices, const EdgeList& edges, bool directed) const {
  return ShardedGraphStore::FromEdgeMultiset(
      num_vertices, edges, directed, ResolveNumShards(config_, num_vertices));
}

void PartitioningSession::EnsurePool() {
  const int threads = ResolveNumThreads(config_, store_.num_shards());
  if (pool_ == nullptr || pool_->num_threads() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
}

Status PartitioningSession::EnsureRegistry() {
  if (registry_ != nullptr) return Status::OK();
  dist::RegistryOptions options;
  if (!config_.execution.listen_address.empty()) {
    options.listen_address = config_.execution.listen_address;
  }
  options.handshake_timeout_ms = config_.execution.handshake_timeout_ms;
  SPINNER_ASSIGN_OR_RETURN(registry_,
                           dist::WorkerRegistry::Listen(options));
  return Status::OK();
}

Result<std::string> PartitioningSession::TcpAddress() {
  if (config_.execution.mode != ExecutionMode::kTcp) {
    return Status::FailedPrecondition(
        "TcpAddress() is only meaningful in ExecutionMode::kTcp");
  }
  SPINNER_RETURN_IF_ERROR(EnsureRegistry());
  return registry_->address();
}

Status PartitioningSession::RunLpa(std::vector<PartitionId> initial_labels,
                                   int k, PartitionResult* out) {
  SpinnerConfig run_config = config_;
  run_config.num_partitions = k;
  Result<ShardedRunResult> ran = [&]() -> Result<ShardedRunResult> {
    if (config_.execution.mode == ExecutionMode::kInProcess) {
      EnsurePool();
      return RunShardedSpinner(run_config, &store_, std::move(initial_labels),
                               pool_.get(),
                               observer_.active() ? &observer_ : nullptr);
    }
    // Cross-process execution: the coordinator drives the identical
    // superstep schedule over forked (kMultiProcess) or dial-in TCP
    // (kTcp) workers, so the session-visible outcome is bit-identical to
    // the in-process path.
    dist::MultiProcessOptions mp =
        dist::MultiProcessOptionsFor(config_.execution);
    if (config_.execution.mode == ExecutionMode::kTcp) {
      SPINNER_RETURN_IF_ERROR(EnsureRegistry());
      mp.worker_transport = registry_.get();
    }
    return dist::RunMultiProcessSpinner(
        run_config, &store_, std::move(initial_labels), mp,
        observer_.active() ? &observer_ : nullptr);
  }();
  if (!ran.ok()) {
    // A failed run may leave partial labels behind; the assignment stands.
    store_.labels() = assignment_;
    return ran.status();
  }
  ShardedRunResult run = std::move(ran).value();
  out->num_partitions = k;
  out->iterations = run.iterations;
  out->converged = run.converged;
  out->cancelled = run.cancelled;
  out->history = std::move(run.history);
  out->run_stats = std::move(run.run_stats);
  out->wire = std::move(run.wire);
  out->assignment = store_.labels();

  BalanceSpec spec;
  spec.mode = run_config.balance_mode;
  spec.partition_weights = run_config.partition_weights;
  SPINNER_ASSIGN_OR_RETURN(
      out->metrics,
      ComputeMetricsEx(store_, out->assignment, k,
                       run_config.additional_capacity, spec));
  return Status::OK();
}

Status PartitioningSession::Open(int64_t num_vertices, EdgeList edges,
                                 bool directed) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (open_) {
    return Status::FailedPrecondition(
        "session is already open; use a fresh session per graph");
  }
  SPINNER_ASSIGN_OR_RETURN(store_,
                           BuildStore(num_vertices, edges, directed));
  std::vector<PartitionId> no_labels(num_vertices, kNoPartition);
  PartitionResult result;
  const Status run_status =
      RunLpa(std::move(no_labels), current_k_, &result);
  if (!run_status.ok()) {
    store_ = ShardedGraphStore();
    return run_status;
  }

  assignment_ = result.assignment;
  last_result_ = std::move(result);
  open_ = true;
  return Status::OK();
}

Status PartitioningSession::ApplyDelta(const GraphDelta& delta) {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  // The store checks the whole delta before patching anything, so a bad
  // delta leaves the session untouched.
  SPINNER_ASSIGN_OR_RETURN(ShardedGraphStore::Undo undo,
                           store_.ApplyDelta(delta));
  // Incremental restart labels (§III.D) over the patched graph.
  Result<std::vector<PartitionId>> initial = ExtendForNewVertices(
      store_.WeightedDegrees(), assignment_, current_k_);
  PartitionResult result;
  const Status run_status =
      initial.ok() ? RunLpa(std::move(initial).value(), current_k_, &result)
                   : initial.status();
  if (!run_status.ok()) {
    store_.Revert(std::move(undo));  // swap the old shard arrays back
    return run_status;
  }

  assignment_ = result.assignment;
  last_result_ = std::move(result);
  return Status::OK();
}

Status PartitioningSession::Rescale(int new_k) {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  if (new_k < 1) {
    return Status::InvalidArgument(
        StrFormat("new_k must be >= 1 (got %d)", new_k));
  }
  // The probabilistic elastic re-labeling (§III.E) seeds the restart.
  std::vector<PartitionId> initial;
  if (new_k > current_k_) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticExpand(assignment_, current_k_, new_k, config_.seed));
  } else if (new_k < current_k_) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticShrink(assignment_, current_k_, new_k, config_.seed));
  } else {
    initial = assignment_;
  }
  PartitionResult result;
  SPINNER_RETURN_IF_ERROR(RunLpa(std::move(initial), new_k, &result));

  current_k_ = new_k;
  config_.num_partitions = new_k;
  assignment_ = result.assignment;
  last_result_ = std::move(result);
  return Status::OK();
}

Status PartitioningSession::Refine() {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  PartitionResult result;
  SPINNER_RETURN_IF_ERROR(RunLpa(assignment_, current_k_, &result));
  assignment_ = result.assignment;
  last_result_ = std::move(result);
  return Status::OK();
}

Status PartitioningSession::ResizeWorkers(int num_workers) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (num_workers < 1) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be >= 1 (got %d)", num_workers));
  }
  if (config_.execution.mode == ExecutionMode::kInProcess) {
    return Status::FailedPrecondition(
        "ResizeWorkers applies to kMultiProcess/kTcp sessions; "
        "kInProcess has no worker fleet");
  }
  config_.execution.num_workers = num_workers;
  if (config_.execution.mode == ExecutionMode::kTcp && registry_ != nullptr) {
    registry_->DrainPooled(num_workers);
  }
  return Status::OK();
}

Status PartitioningSession::Snapshot(const std::string& path) const {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = store_.NumVertices();
  snapshot.edges = store_.Edges();
  snapshot.directed = store_.directed();
  snapshot.num_partitions = current_k_;
  snapshot.assignment = assignment_;
  return graph_io::WriteSessionSnapshot(path, snapshot);
}

Status PartitioningSession::Restore(const std::string& path) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  SPINNER_ASSIGN_OR_RETURN(graph_io::SessionSnapshot snapshot,
                           graph_io::ReadSessionSnapshot(path));
  return RestoreSnapshot(std::move(snapshot));
}

Status PartitioningSession::RestoreSnapshot(
    graph_io::SessionSnapshot snapshot) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (snapshot.num_partitions < 1) {
    return Status::InvalidArgument(
        "snapshot carries no assignment; cannot restore a session from it");
  }
  // In-memory snapshots (delta-log replay) bypass ReadSessionSnapshot's
  // validation; re-check the assignment invariants here.
  if (static_cast<int64_t>(snapshot.assignment.size()) !=
      snapshot.num_vertices) {
    return Status::InvalidArgument(
        "snapshot assignment does not cover every vertex");
  }
  for (PartitionId l : snapshot.assignment) {
    if (l < 0 || l >= snapshot.num_partitions) {
      return Status::InvalidArgument("snapshot assignment label out of range");
    }
  }
  SPINNER_ASSIGN_OR_RETURN(
      ShardedGraphStore store,
      BuildStore(snapshot.num_vertices, snapshot.edges, snapshot.directed));
  store.labels() = snapshot.assignment;

  store_ = std::move(store);
  assignment_ = std::move(snapshot.assignment);
  current_k_ = snapshot.num_partitions;
  config_.num_partitions = current_k_;
  last_result_ = PartitionResult{};
  open_ = true;
  return Status::OK();
}

void PartitioningSession::SetProgressObserver(ProgressObserver observer) {
  observer_ = std::move(observer);
}

Result<PartitionMetrics> PartitioningSession::Metrics() const {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  BalanceSpec spec;
  spec.mode = config_.balance_mode;
  spec.partition_weights = config_.partition_weights;
  return ComputeMetricsEx(store_, assignment_, current_k_,
                          config_.additional_capacity, spec);
}

}  // namespace spinner
