// The master side of the cross-process execution mode. A run acquires
// worker connections from a Transport (dist/registry.h) — forked children
// over socketpairs, or dial-in TCP workers from the WorkerRegistry —
// assigns each a contiguous, capacity-weighted range of store shards
// (Assign), learns what each worker already hosts (Resume), downloads
// only the stale/missing shard slices (Setup, streamed across chunk
// frames for graphs of any size), collects each worker's boundary
// subscription (Subscribe), and turns every superstep phase into one
// lockstep RPC round — so DriveSpinnerSupersteps runs the exact same
// master schedule over processes as it does over ThreadPool tasks, and
// RunMultiProcessSpinner is bit-identical to RunShardedSpinner for every
// {num_shards, num_workers, transport} (the invariance tests assert
// assignments AND float φ/ρ/score histories).
//
// Label traffic is cut-proportional: after Init each worker receives the
// labels of exactly its subscribed (out-of-range neighbor) vertices, and
// each iteration's delta broadcast is filtered per worker to its
// subscription — O(boundary) bytes per superstep instead of O(V·workers).
// Initial labels are likewise sliced per worker to its owned range. The
// result's WireTraffic exposes this for tests and the bench wire report.
//
// Failure contract: a worker that dies mid-superstep (EOF/EPIPE on its
// socket) or sends a malformed reply surfaces as a non-OK Status from the
// run — never a hang. Every run ends on one retire path: each endpoint
// is probed with the Teardown handshake, the ones that ack go back to the
// transport (a registry pools them in the Assign-await state) and the
// rest are destroyed. Cross-process state is verified, not assumed: each
// iteration's delta broadcast is acknowledged with a checksum over the
// worker's owned slices and subscribed mirror, and a final Snapshot round
// checks every worker's shard state against the coordinator's merged
// view bit-for-bit.
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
