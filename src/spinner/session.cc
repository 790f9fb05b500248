#include "spinner/session.h"

#include <utility>

#include "common/string_util.h"
#include "dist/registry.h"
#include "graph/binary_io.h"
#include "spinner/initial_assignment.h"
#include "spinner/sharded_program.h"

namespace spinner {

PartitioningSession::PartitioningSession(const SpinnerConfig& config,
                                         SessionOptions options)
    : config_(config),
      options_(options),
      init_status_(config.Validate()) {
  config_.execution = MergedExecution(options_.execution, config_.execution);
  if (init_status_.ok()) init_status_ = config_.Validate();
}

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

Result<std::string> PartitioningSession::TcpAddress() {
  if (config_.execution.mode != ExecutionMode::kTcp) {
    return Status::FailedPrecondition(
        "TcpAddress() is only meaningful in ExecutionMode::kTcp");
  }
  SPINNER_ASSIGN_OR_RETURN(dist::WorkerRegistry * registry,
                           resources_.Registry(config_.execution));
  return registry->address();
}

Status PartitioningSession::Commit(Result<PartitionResult> run) {
  if (!run.ok()) {
    // A failed run may leave partial labels behind; the assignment stands.
    store_.labels() = assignment_;
    return run.status();
  }
  assignment_ = run->assignment;
  last_result_ = std::move(run).value();
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
  const Status status =
      Commit(RunSpinner(config_, num_partitions(), &store_,
                        std::move(no_labels), &resources_, observer_));
  if (!status.ok()) {
    store_ = ShardedGraphStore();
    return status;
  }
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
      store_.WeightedDegrees(), assignment_, num_partitions());
  const Status status =
      initial.ok() ? Commit(RunSpinner(config_, num_partitions(), &store_,
                                       std::move(initial).value(),
                                       &resources_, observer_))
                   : initial.status();
  if (!status.ok()) {
    store_.Revert(std::move(undo));  // swap the old shard arrays back
    return status;
  }
  return Status::OK();
}

Status PartitioningSession::Rescale(int new_k) {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  if (new_k < 1) {
    return Status::InvalidArgument(
        StrFormat("new_k must be >= 1 (got %d)", new_k));
  }
  // The probabilistic elastic re-labeling (§III.E) seeds the restart.
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ElasticRelabel(assignment_, num_partitions(), new_k, config_.seed));
  SPINNER_RETURN_IF_ERROR(Commit(RunSpinner(
      config_, new_k, &store_, std::move(initial), &resources_, observer_)));
  config_.num_partitions = new_k;
  return Status::OK();
}

Status PartitioningSession::Refine() {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  return Commit(RunSpinner(config_, num_partitions(), &store_, assignment_,
                           &resources_, observer_));
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
  if (dist::WorkerRegistry* registry = resources_.bound_registry()) {
    registry->DrainPooled(num_workers);
  }
  return Status::OK();
}

Status PartitioningSession::Snapshot(const std::string& path,
                                     uint64_t* checksum) const {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = store_.NumVertices();
  snapshot.edges = store_.Edges();
  snapshot.directed = store_.directed();
  snapshot.num_partitions = num_partitions();
  snapshot.assignment = assignment_;
  return graph_io::WriteSessionSnapshot(path, snapshot, checksum);
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
  config_.num_partitions = snapshot.num_partitions;
  last_result_ = PartitionResult{};
  open_ = true;
  return Status::OK();
}

void PartitioningSession::SetProgressObserver(ProgressObserver observer) {
  observer_ = std::move(observer);
}

Result<PartitionMetrics> PartitioningSession::Metrics() const {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  return ComputeMetricsEx(store_, assignment_, num_partitions(),
                          config_.additional_capacity, BalanceSpecOf(config_));
}

}  // namespace spinner
