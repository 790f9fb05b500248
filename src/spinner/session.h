// PartitioningSession: the stateful, maintained-partitioning API.
//
// The paper's central claim is that Spinner is not a one-shot partitioner
// but a partitioning that is *kept* good as the graph changes (§III.D) and
// the cluster resizes (§III.E). This class owns that lifecycle: the graph —
// one ShardedGraphStore, whose shard-local CSRs the shard-parallel LPA runs
// over and which also keeps the directed edge multiset — and the current
// assignment live here, so callers express intent ("the graph changed",
// "we have 4 more machines") instead of re-wiring delta application,
// conversion and label threading by hand.
//
//   SessionOptions options;
//   options.execution.num_shards = 8;
//   options.execution.num_threads = 4;
//   PartitioningSession session(config, options);
//   SPINNER_CHECK_OK(session.Open(n, edges, /*directed=*/true));
//   ...
//   GraphDelta delta;                                  // graph changed
//   delta.AddVertex(200).AddEdge(5, n + 10);
//   SPINNER_CHECK_OK(session.ApplyDelta(delta));       // adapt, not redo
//   ...
//   SPINNER_CHECK_OK(session.Rescale(40));             // cluster grew
//   SPINNER_CHECK_OK(session.Snapshot("state.spns"));  // persist
//
// Sharding is a pure parallelism knob: the partitioning computed by a
// session is bit-identical for every {num_shards, num_threads} choice
// (see spinner/sharded_program.h for why). A delta patches the store in
// place: its cost before label propagation is O(Δ log Δ) plus one merge
// pass over each shard owning a touched vertex, never a reconversion of the
// whole graph.
//
// Every mutation runs label propagation from the previous assignment and
// commits atomically: on error the session keeps its pre-call state.
#ifndef SPINNER_SPINNER_SESSION_H_
#define SPINNER_SPINNER_SESSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/binary_io.h"
#include "graph/delta.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/metrics.h"
#include "spinner/observer.h"
#include "spinner/partitioner.h"

namespace spinner {

/// Execution-shape knobs of a session, orthogonal to the algorithm
/// configuration. Every field of `execution` that differs from its
/// default wins over the same field of the session's
/// SpinnerConfig::execution (MergedExecution). No value here ever changes
/// the partitioning a session computes — both bit-identity and the float
/// histories hold across every mode.
struct SessionOptions {
  /// Where and how wide the session's label propagation executes,
  /// including the kTcp endpoint config (listen_address, handshake
  /// timeout, worker store directory). See spinner/execution_options.h.
  ExecutionOptions execution = {};
};

/// Owns one graph and its maintained partitioning. Not thread-safe; one
/// session per partitioned graph.
class PartitioningSession {
 public:
  /// `config.num_partitions` is the initial k; Rescale() changes it.
  /// `options.execution` fixes the session's execution shape (set fields
  /// win over config.execution). An invalid config is reported by the
  /// first lifecycle call rather than by crashing the constructor.
  explicit PartitioningSession(const SpinnerConfig& config,
                               SessionOptions options = {});

  // --- Lifecycle ---------------------------------------------------------

  /// Converts `edges` over `num_vertices` vertices into the session's
  /// store, which keeps the edge multiset, and computes the initial
  /// partitioning from scratch. `directed` selects the
  /// conversion: true applies the paper's Eq. 3 weighting, false treats
  /// `edges` as an undirected edge list (each edge listed once).
  /// Fails (FailedPrecondition) if the session is already open.
  Status Open(int64_t num_vertices, EdgeList edges, bool directed = true);

  /// Patches `delta` into the store (ShardedGraphStore::ApplyDelta: only
  /// shards owning an endpoint of a changed edge are rebuilt, and new
  /// vertices join the last shard) and adapts the partitioning
  /// incrementally (§III.D): existing vertices keep their labels as the
  /// starting point, new vertices join the least-loaded partition, then
  /// label propagation re-optimizes. If that fails, the store's old
  /// arrays are swapped back.
  Status ApplyDelta(const GraphDelta& delta);

  /// Elastic adaptation (§III.E) to `new_k` partitions. The probabilistic
  /// expand/shrink re-labeling seeds label propagation; after success
  /// num_partitions() == new_k.
  Status Rescale(int new_k);

  /// Runs additional label-propagation iterations from the current
  /// assignment without changing the graph or k — e.g. after a cancelled
  /// run or to tighten a restored snapshot.
  Status Refine();

  /// Elastic worker-fleet resize for the off-thread modes: the next
  /// lifecycle call runs with `num_workers` workers. Under kTcp this also
  /// drains surplus pooled registry connections immediately (the drained
  /// dial-in workers see EOF and exit 0); growing the fleet needs no
  /// registry action — the next Acquire waits for additional dial-ins.
  /// Worker count never affects the computed partitioning (bit-identity
  /// across shapes), so no re-partitioning happens here.
  /// FailedPrecondition under kInProcess, where there is no fleet.
  Status ResizeWorkers(int num_workers);

  /// The worker count the next off-thread lifecycle call will use.
  int num_workers() const { return config_.execution.num_workers; }

  // --- Persistence -------------------------------------------------------

  /// Writes graph + assignment + k to `path` (binary SPNS format). A
  /// non-null `checksum` receives the FNV-1a digest of the file's bytes.
  Status Snapshot(const std::string& path,
                  uint64_t* checksum = nullptr) const;

  /// Replaces the session state with a snapshot, without re-running label
  /// propagation. A session can Restore() whether or not it was open.
  Status Restore(const std::string& path);

  /// Restore() from an in-memory snapshot — the entry point of the
  /// incremental (base + delta-log) checkpoint path
  /// (stream/checkpoint_log.h), which replays a log into a snapshot and
  /// installs it here without a temp-file round trip.
  Status RestoreSnapshot(graph_io::SessionSnapshot snapshot);

  // --- Observation -------------------------------------------------------

  /// Installs a per-iteration observer (φ/ρ/score callback + cancellation
  /// token) used by every subsequent lifecycle call. Pass {} to clear.
  void SetProgressObserver(ProgressObserver observer);

  // --- Introspection -----------------------------------------------------

  /// True after a successful Open() or Restore().
  bool is_open() const { return open_; }

  /// Current partition count (k). Tracks Rescale().
  int num_partitions() const { return config_.num_partitions; }

  /// Shard count of the graph store (0 until the session is open).
  int num_shards() const { return store_.num_shards(); }

  int64_t num_vertices() const { return store_.NumVertices(); }

  /// True if the edge list is directed (the conversion applied the
  /// paper's Eq. 3 weighting). Fixed by Open()/Restore().
  bool directed() const { return store_.directed(); }

  /// The edge multiset, rebuilt from the store in canonical order (sorted
  /// by (src, dst), duplicates and self-loops included): O(n + m) per
  /// call. Use num_edges() when only the count matters.
  EdgeList edges() const { return store_.Edges(); }

  /// Number of edges in the multiset, O(1).
  int64_t num_edges() const { return store_.NumEdges(); }

  /// The sharded graph store label propagation runs over — the session's
  /// only copy of the graph. Valid while the session is open; exposes
  /// shard ranges, per-shard loads and rebuild counts (observability for
  /// the owning-shards-only delta contract).
  const ShardedGraphStore& store() const { return store_; }

  /// The execution-shape options the session was constructed with.
  const SessionOptions& options() const { return options_; }

  /// The merged execution options this session runs with (session
  /// options folded over the config's).
  const ExecutionOptions& execution() const { return config_.execution; }

  /// The effective execution mode (either layer can select an off-thread
  /// mode).
  ExecutionMode execution_mode() const { return config_.execution.mode; }

  /// kTcp only: the "host:port" dial-in workers must connect to. Binds
  /// the session's worker registry on first call (so workers can be
  /// launched before Open()). The registry — and its pooled worker
  /// connections — persists across lifecycle calls: a worker that stays
  /// connected keeps its shard slices and resumes without re-downloading.
  Result<std::string> TcpAddress();

  /// The maintained assignment: one label in [0, num_partitions()) per
  /// vertex.
  const std::vector<PartitionId>& assignment() const { return assignment_; }

  /// Full result (iterations, history, run stats, scheduler counters,
  /// wire traffic, metrics) of the last lifecycle call that ran label
  /// propagation — the same PartitionResult SpinnerPartitioner returns.
  /// Empty default after Restore() — quality is available via Metrics().
  const PartitionResult& last_result() const { return last_result_; }

  /// Quality of the current assignment, computed on demand.
  Result<PartitionMetrics> Metrics() const;

  /// The session's configuration (num_partitions reflects the current k).
  const SpinnerConfig& config() const { return config_; }

 private:
  /// Fails unless the session is open and the config is valid.
  Status CheckReady() const;

  /// Converts `edges` into a store of the session's shard count.
  Result<ShardedGraphStore> BuildStore(int64_t num_vertices,
                                       const EdgeList& edges,
                                       bool directed) const;

  /// Installs the outcome of a RunSpinner over store_: on success its
  /// assignment and result become the session state; on failure
  /// store_.labels() is reset to assignment() and the error returned.
  Status Commit(Result<PartitionResult> run);

  /// num_partitions is the current k; execution holds the merged session
  /// + config execution options.
  SpinnerConfig config_;
  SessionOptions options_;
  Status init_status_;     // config validation outcome, reported lazily
  /// The thread pool and (kTcp) the listener + pooled worker connections,
  /// shared by every lifecycle call of this session.
  ExecutionResources resources_;
  bool open_ = false;
  ShardedGraphStore store_;
  std::vector<PartitionId> assignment_;
  PartitionResult last_result_;
  ProgressObserver observer_;
};

}  // namespace spinner

#endif  // SPINNER_SPINNER_SESSION_H_
