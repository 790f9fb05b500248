// ShardWorker: the per-process executor of the cross-process execution
// mode. One worker process owns a contiguous run of shard slices and
// mirrors the labels of exactly its boundary — the out-of-range neighbors
// of its shards, which it subscribes to right after Setup. It answers the
// coordinator's lockstep superstep RPCs by running exactly the same shard
// phase bodies as the in-process substrate (spinner/shard_superstep.h) —
// which is what makes the two execution modes bit-identical by
// construction.
//
// Connection protocol (same over socketpair and TCP): the worker opens
// with Hello{protocol version, capacity}; each run is then
//   Assign -> Resume -> Setup(stale slices only) -> Subscribe -> supersteps
//   -> Teardown/TeardownAck
// and after TeardownAck the worker loops back to await the next Assign on
// the SAME connection. A worker given a PersistentShardStore root
// (WorkerLoopOptions::store_dir) hosts its slices on disk and reports
// their fingerprints in Resume, so a matching re-Assign downloads nothing.
//
// Memory is compact: the label array covers owned vertices plus the
// subscribed boundary (not all of V), candidate/block-score scratch covers
// owned entries only, and every CSR target is remapped to a slot in that
// compact array at Setup. At k <= 256 a one-byte copy of the label array,
// kept in step by every label write, is what ComputeScores gathers from.
// The shard kernels keep hashing GLOBAL vertex ids (via their index_base
// parameter), so compaction cannot perturb results.
//
// A worker is single-threaded: its parallelism unit is the process, and
// within a process shards execute in ascending shard order. It trusts
// nothing from the wire — every payload is decoded with truncation checks
// and cross-validated against the Assign/Setup topology; a violation is
// reported back as an Error frame before the process exits nonzero.
#ifndef SPINNER_DIST_WORKER_H_
#define SPINNER_DIST_WORKER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/transport.h"
#include "graph/sharded_store.h"

namespace spinner::dist {

/// The compact index layout of one worker: a contiguous owned vertex
/// range plus the ascending boundary (subscription) set. Local slot `i`
/// holds vertex `owned_begin + i` for i < owned_count(), and
/// `subscription[i - owned_count()]` beyond — owned slices first, mirror
/// in subscription order, which is exactly the fold order of the
/// coordinator's state-checksum gate.
struct WorkerLayout {
  VertexId owned_begin = 0;
  VertexId owned_end = 0;
  /// Out-of-range neighbors of the owned shards, strictly ascending.
  std::vector<VertexId> subscription;

  int64_t owned_count() const { return owned_end - owned_begin; }
  /// Label-array size: owned + subscribed — the whole point of the remap.
  int64_t num_slots() const {
    return owned_count() + static_cast<int64_t>(subscription.size());
  }
  /// Score blocks covering the owned range (owned_begin is block-aligned).
  int64_t num_blocks() const {
    return (owned_count() + ShardedGraphStore::kBlockSize - 1) /
           ShardedGraphStore::kBlockSize;
  }
  bool Owns(VertexId v) const { return v >= owned_begin && v < owned_end; }
};

/// Builds the layout of a worker owning `shards` (ascending, contiguous,
/// block-aligned begin — the coordinator's assignment invariants, here
/// re-validated since slices arrive over the wire) within a graph of
/// `num_vertices`, and rewrites every target from its global vertex id to
/// its compact slot (owned v -> v - owned_begin; subscribed v ->
/// owned_count + subscription index). Every target must lie in
/// [0, num_vertices); on any violation `shards` is left untouched. Time
/// is linear in the owned arcs (a radix sort of the boundary arcs), and
/// the scratch, O(boundary arcs), is freed before it returns.
Result<WorkerLayout> RemapToWorkerLayout(
    std::span<ShardedGraphStore::Shard> shards, int64_t num_vertices);

/// Per-process knobs of a worker loop (both transports).
struct WorkerLoopOptions {
  /// PersistentShardStore root; empty = in-memory only (every Assign
  /// downloads all owned slices).
  std::string store_dir;
  /// Capacity advertised in Hello; the coordinator sizes this worker's
  /// shard range proportionally. Must be >= 1.
  int64_t capacity = 1;
  /// TCP dial budget of RunTcpWorker (the coordinator may bind late).
  int64_t dial_timeout_ms = 30'000;
  /// Fault-injection hook for chaos testing dial-in fleets: >= 0 makes
  /// the worker _exit(3) while handling its Nth Scores request — after
  /// consuming the request, before replying — exactly the worst spot for
  /// the coordinator. The Assign-carried hook (coordinator-injected, used
  /// by the forked-transport tests) overrides this per run when set.
  int32_t fail_after_score_steps = -1;
};

/// Runs the worker protocol loop over the coordinator connection `fd`
/// until the peer closes the connection while the worker is idle (returns
/// 0 — the clean release path), the peer disappears mid-run (returns 2),
/// or a protocol/validation error occurs (reported as an Error frame,
/// returns 1). `options` must match the coordinator's transport options.
/// The caller — a forked child or RunTcpWorker — passes the returned
/// value to _exit()/main's return.
int RunShardWorkerLoop(int fd, const TransportOptions& options,
                       const WorkerLoopOptions& loop = {});

/// Dials `connect_address` ("host:port", retrying until
/// `loop.dial_timeout_ms`) and runs the worker loop over the resulting
/// connection. Returns the loop's exit code; a failed dial prints the
/// error to stderr and returns 1. This is `partition_tool worker`.
int RunTcpWorker(const std::string& connect_address,
                 const TransportOptions& options,
                 const WorkerLoopOptions& loop = {});

}  // namespace spinner::dist

#endif  // SPINNER_DIST_WORKER_H_
