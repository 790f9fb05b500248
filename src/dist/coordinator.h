// Coordinator: the master side of the cross-process execution mode. It
// acquires worker connections from a Transport (dist/registry.h) — forked
// children over socketpairs, or dial-in TCP workers from the
// WorkerRegistry — assigns each a contiguous, capacity-weighted range of
// store shards (Assign), learns what each worker already hosts (Resume),
// downloads only the stale/missing shard slices (Setup, streamed across
// chunk frames for graphs of any size), collects each worker's boundary
// subscription, and implements the SuperstepBackend interface by turning
// every superstep phase into one lockstep RPC round — so
// DriveSpinnerSupersteps runs the exact same master schedule over
// processes as it does over ThreadPool tasks, and RunMultiProcessSpinner
// is bit-identical to RunShardedSpinner for every {num_shards,
// num_workers, transport} (the invariance tests assert assignments AND
// float φ/ρ/score histories).
//
// Label traffic is cut-proportional: after Init each worker receives the
// labels of exactly its subscribed (out-of-range neighbor) vertices, and
// each iteration's delta broadcast is filtered per worker to its
// subscription — O(boundary) bytes per superstep instead of O(V·workers).
// Initial labels are likewise sliced per worker to its owned range. The
// WireCounters and the slice download counters expose this for tests and
// the bench wire report.
//
// Failure contract: a worker that dies mid-superstep (EOF/EPIPE on its
// socket) or sends a malformed reply surfaces as a non-OK Status from the
// run — never a hang — and every remaining worker is destroyed through
// the transport before the error returns. Cross-process state is
// verified, not assumed: each iteration's delta broadcast is acknowledged
// with a checksum over the worker's owned slices and subscribed mirror,
// and a final Snapshot round checks every worker's shard state against
// the coordinator's merged view bit-for-bit.
#ifndef SPINNER_DIST_COORDINATOR_H_
#define SPINNER_DIST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/registry.h"
#include "dist/transport.h"
#include "dist/wire_format.h"
#include "graph/sharded_store.h"
#include "spinner/config.h"
#include "spinner/observer.h"
#include "spinner/sharded_program.h"

namespace spinner::dist {

/// Execution-shape and test options of a multi-process run.
struct MultiProcessOptions {
  /// Worker processes to drive (0 = min(num_shards, hardware threads)).
  int num_workers = 0;

  /// Transport knobs (frame payload ceiling, reassembly guard), shared
  /// with every worker. Defaults honor SPINNER_WIRE_MAX_PAYLOAD.
  TransportOptions transport = TransportOptions::FromEnv();

  /// Where worker connections come from. Null = a private
  /// UnixSocketTransport (fork-per-run, the single-host default); point
  /// it at a WorkerRegistry to drive dial-in TCP workers. Not owned.
  Transport* worker_transport = nullptr;

  /// PersistentShardStore root for forked workers (UnixSocketTransport
  /// only; dial-in workers configure their own store). Empty = in-memory.
  std::string worker_store_dir;

  /// Read deadline of every coordinator recv: a worker that stays
  /// connected but sends nothing for this long is declared hung
  /// (DeadlineExceeded, distinct from the dead-peer IOError). The
  /// deadline renews on every byte of progress, so a slow-but-alive
  /// worker streaming a large reply is never falsely declared hung.
  int64_t rpc_timeout_ms = 120'000;
  /// Liveness poll granularity of those deadlines, and the base unit of
  /// the exponential backoff between recovery attempts.
  int64_t heartbeat_period_ms = 1'000;
  /// Superstep-phase retries after a worker failure before the run
  /// surfaces the error. 0 (the default) disables recovery: the first
  /// failure aborts the run, the pre-recovery behavior. Each retry
  /// pauses at the failed phase, rebuilds the fleet (probing survivors,
  /// destroying the dead, topping up from the transport), replays the
  /// checkpointed label state, and re-runs the phase — the recovered
  /// run's assignments and float histories stay bit-identical to a
  /// failure-free run.
  int max_recovery_attempts = 0;

  /// Test hooks: worker `fail_worker` calls _exit(3) right before replying
  /// to its (fail_after_score_steps+1)-th ComputeScores request — a
  /// deterministic mid-superstep crash. -1 = never (the default). Injected
  /// only by the initial Spawn, never by a recovery re-assign.
  int fail_after_score_steps = -1;
  int fail_worker = 0;
};

/// The worker-process count a run should use; never affects results.
int ResolveNumWorkers(int requested, int num_shards);

/// The options `execution` selects: worker count, wire payload ceiling,
/// worker store directory, deadlines and recovery attempts. The caller
/// sets worker_transport for kTcp.
MultiProcessOptions MultiProcessOptionsFor(const ExecutionOptions& execution);

/// Owns the worker endpoints of one multi-process run. Not thread-safe.
class Coordinator {
 public:
  Coordinator() = default;
  ~Coordinator();  // destroys anything still attached

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Acquires `num_workers` endpoints from the transport, assigns each a
  /// contiguous ascending range of store shards (sized by the capacity it
  /// advertised in Hello), and runs the Assign/Resume/Setup handshake:
  /// each worker receives the full run config and its slice fingerprints,
  /// reports what it already hosts, and downloads only the remainder. On
  /// failure every acquired endpoint is destroyed.
  Status Spawn(const SpinnerConfig& config, const ShardedGraphStore& store,
               int num_workers, const MultiProcessOptions& options);

  /// Receives every worker's Subscribe message (its out-of-range neighbor
  /// set, sent right after Setup) and builds the per-worker subscription
  /// index, validating each set against `store` (strictly ascending,
  /// in-range, none owned by the sender). Must run once, before Init.
  Status CollectSubscriptions(const ShardedGraphStore& store);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Global shard ids owned by worker `w`, ascending.
  const std::vector<int32_t>& owned_shards(int w) const {
    return workers_[static_cast<size_t>(w)].shards;
  }

  /// Vertices worker `w` subscribed to (ascending); empty until
  /// CollectSubscriptions succeeds.
  const std::vector<VertexId>& subscription(int w) const {
    return workers_[static_cast<size_t>(w)].subscription;
  }

  /// Sends one message to worker `w` / to every worker (chunked across
  /// frames when it exceeds the transport's payload ceiling).
  Status SendTo(int w, MessageType type, std::span<const uint8_t> payload);
  Status SendToAll(MessageType type, std::span<const uint8_t> payload);

  /// Receives the next message from worker `w` and checks its type,
  /// bounded by the rpc_timeout_ms read deadline. An Error frame decodes
  /// into the worker's Status; EOF (a dead worker) becomes an IOError
  /// and an elapsed deadline (connected but silent) a DeadlineExceeded,
  /// each naming the worker — callers never hang on a failed process.
  Result<Frame> RecvFrom(int w, MessageType expected);

  /// Rebuilds the fleet after a worker failure: probes every attached
  /// endpoint with the Teardown handshake (survivors reset to the
  /// Assign-await state; the dead and the hung are destroyed), tops the
  /// fleet back up from the transport best-effort (a replacement gets one
  /// rpc timeout to materialize, otherwise survivors absorb the missing
  /// range), and re-runs the Assign/Resume/Setup handshake over the new
  /// roster — re-carving ALL shard ranges capacity-weighted, with
  /// matching PersistentShardStore fingerprints downloading nothing.
  /// Callers must re-run CollectSubscriptions afterwards. Fails when no
  /// worker survives.
  Status RebuildFleet(const ShardedGraphStore& store);

  /// Bytes/frames moved through this coordinator, all workers combined.
  const WireCounters& counters() const { return counters_; }

  /// Slice download accounting of the Spawn/RebuildFleet handshakes.
  int64_t slices_downloaded() const { return slices_downloaded_; }
  int64_t slice_bytes_downloaded() const { return slice_bytes_downloaded_; }
  int64_t slices_resumed() const { return slices_resumed_; }

  /// Endpoints newly acquired by RebuildFleet top-ups.
  int64_t workers_replaced() const { return workers_replaced_; }

  /// Clean teardown handshake, then releases every endpoint back to the
  /// transport (a registry pools the live connections for the next run).
  /// Destroys every worker if any step fails, then returns the first
  /// error.
  Status Shutdown();

  /// Graceful abort for error paths: probes every attached endpoint with
  /// the Teardown handshake, Releases the ones that ack (a registry gets
  /// its pooled connection back in a defined, Assign-await state — not
  /// mid-run), and Destroys the rest. Idempotent.
  void Abort();

  /// Destroys every attached endpoint through the transport (last-resort
  /// paths; idempotent). Forked children are SIGKILLed and reaped.
  void ForceKill();

 private:
  struct Worker {
    WorkerEndpoint endpoint;
    std::vector<int32_t> shards;
    /// Ascending out-of-range neighbor set the worker subscribed to.
    std::vector<VertexId> subscription;
  };

  /// Carves contiguous capacity-weighted shard ranges over `endpoints`
  /// and runs the Assign/Resume/Setup handshake (the body shared by
  /// Spawn and RebuildFleet). Repopulates workers_; on failure every
  /// endpoint is destroyed. `inject_fail_hook` arms the crash test hook
  /// (initial Spawn only).
  Status AssignFleet(const ShardedGraphStore& store,
                     std::vector<WorkerEndpoint> endpoints,
                     bool inject_fail_hook);

  /// Returns a mid-run endpoint to the Assign-await state: sends
  /// Teardown, then drains in-flight replies (bounded) until the
  /// TeardownAck. Non-OK means the worker is dead, hung, or babbling —
  /// destroy it.
  Status ResetEndpoint(WorkerEndpoint& endpoint);

  std::vector<Worker> workers_;
  Transport* transport_impl_ = nullptr;
  std::unique_ptr<UnixSocketTransport> owned_transport_;
  std::unique_ptr<Transport> fault_transport_;
  TransportOptions transport_;
  SpinnerConfig config_;
  int64_t rpc_timeout_ms_ = 120'000;
  int64_t heartbeat_period_ms_ = 1'000;
  int fail_after_score_steps_ = -1;
  int fail_worker_ = 0;
  WireCounters counters_;
  int64_t slices_downloaded_ = 0;
  int64_t slice_bytes_downloaded_ = 0;
  int64_t slices_resumed_ = 0;
  int64_t workers_replaced_ = 0;
  uint64_t next_message_id_ = 1;
};

/// Runs Spinner label propagation over `store` across worker processes —
/// the cross-process sibling of RunShardedSpinner with the same contract:
/// on success store->labels() holds the final assignment and every
/// shard's load counters are consistent with it, and the result
/// (assignment and float history) is bit-identical to the in-process path
/// for every {num_shards, num_workers, transport}. The result's `wire`
/// field reports the run's wire traffic. `observer` runs coordinator-side
/// and may be null.
Result<ShardedRunResult> RunMultiProcessSpinner(
    const SpinnerConfig& config, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels,
    const MultiProcessOptions& options, const ProgressObserver* observer);

}  // namespace spinner::dist

#endif  // SPINNER_DIST_COORDINATOR_H_
