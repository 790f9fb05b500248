// ExecutionOptions: the one place execution shape is configured.
//
// Every execution knob (mode, shard / thread / worker counts, the wire
// payload ceiling, TCP endpoints, deadlines, recovery) is exactly one
// field of this struct. SpinnerConfig, SessionOptions and
// PartitionerOptions each nest one, and two layers merge field-wise
// through MergedExecution: SessionOptions::execution over the session
// config's SpinnerConfig::execution, and PartitionerOptions::execution
// over PartitionerOptions::spinner.execution.
//
// Execution shape never changes results: partitioning assignments and the
// float φ/ρ/score histories are bit-identical for every mode / shard /
// thread / worker choice — the invariant all CI lanes assert.
#ifndef SPINNER_SPINNER_EXECUTION_OPTIONS_H_
#define SPINNER_SPINNER_EXECUTION_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace spinner {

/// Which substrate executes the supersteps. All modes run the same
/// per-shard kernels under the same master schedule.
enum class ExecutionMode {
  /// One ThreadPool task per shard in this process (default).
  kInProcess,
  /// Forked ShardWorker processes on this host, Unix-domain socketpairs.
  kMultiProcess,
  /// Dial-in ShardWorker processes over TCP: the coordinator runs a
  /// WorkerRegistry listener, workers connect, complete the
  /// Hello/Assign/Resume handshake and host their shards across runs
  /// (persistent per-shard store permitting a zero-download resume).
  kTcp,
};

/// Execution-shape and endpoint configuration shared by SpinnerConfig,
/// SessionOptions and PartitionerOptions. Every field has a "not set"
/// default so option layers can be merged field-wise.
struct ExecutionOptions {
  ExecutionMode mode = ExecutionMode::kInProcess;

  /// Shards of the graph store. 0 = auto (one per hardware thread,
  /// capped by the vertex-block count).
  int num_shards = 0;

  /// OS threads driving in-process shard tasks. 0 = auto.
  int num_threads = 0;

  /// Worker processes for kMultiProcess/kTcp. 0 = auto for
  /// kMultiProcess (min(num_shards, hardware)); kTcp requires an
  /// explicit count (the coordinator must know how many dial-ins to
  /// wait for).
  int num_workers = 0;

  /// Per-frame wire payload ceiling in bytes; larger messages stream
  /// across chunk frames. 0 = transport default (SPINNER_WIRE_MAX_PAYLOAD
  /// env override, or 1 GiB).
  uint64_t wire_max_payload = 0;

  /// kTcp coordinator: address the WorkerRegistry listens on,
  /// "host:port" (port 0 = ephemeral; query the registry for the bound
  /// address).
  std::string listen_address;

  /// kTcp worker: the coordinator address a dial-in worker connects to.
  /// Read by `partition_tool worker` / RunTcpWorker, not the coordinator.
  std::string worker_connect;

  /// Directory of the worker-side PersistentShardStore (one atomically
  /// replaced file per shard). Empty = keep shards in memory only (every
  /// run re-downloads its slices).
  std::string worker_store_dir;

  /// kTcp: how long the coordinator waits for the full worker fleet to
  /// dial in and complete the Hello handshake.
  int64_t handshake_timeout_ms = 30'000;

  /// kMultiProcess/kTcp: read deadline of every coordinator-side blocking
  /// recv. A worker that stays connected but sends nothing for this long
  /// is declared hung (DeadlineExceeded — distinct from a dead peer's
  /// IOError) and, when recovery is enabled, replaced. The deadline renews
  /// on progress, so a worker slowly streaming a large reply is never
  /// falsely declared hung. Must be > 0.
  int64_t rpc_timeout_ms = 120'000;

  /// kMultiProcess/kTcp: granularity at which a deadline-armed wait
  /// re-checks liveness, and the base of the exponential backoff between
  /// recovery attempts. Must be > 0.
  int64_t heartbeat_period_ms = 1'000;

  /// kMultiProcess/kTcp: how many times a run may rebuild its worker
  /// fleet and replay state after a detected worker failure before giving
  /// up. 0 (default) disables recovery — the first failure surfaces as a
  /// Status, the pre-recovery behavior. Recovered runs are bit-identical
  /// to failure-free runs (assignments and float φ/ρ/score histories).
  int max_recovery_attempts = 0;

  Status Validate() const;
};

/// Field-wise merge: every `primary` field that differs from its default
/// wins; unset fields fall back to `fallback`. This is the one precedence
/// rule of the two option layers (outer session/registry options over the
/// SpinnerConfig they carry).
ExecutionOptions MergedExecution(const ExecutionOptions& primary,
                                 const ExecutionOptions& fallback);

}  // namespace spinner

#endif  // SPINNER_SPINNER_EXECUTION_OPTIONS_H_
