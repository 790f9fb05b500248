// Worker supply for the cross-process coordinator: the Transport
// interface abstracts *where worker connections come from*, so the
// coordinator (dist/coordinator.h) speaks one protocol over fds it is
// handed, regardless of whether the peer is a forked child on this host
// or a process that dialed in over TCP from anywhere.
//
//   UnixSocketTransport  fork()s ShardWorker children connected by
//                        socketpair — the single-host mode, one fleet per
//                        run (Release reaps the children).
//   WorkerRegistry       the "in the cloud" mode: a TCP listener where
//                        workers dial in and complete the versioned
//                        Hello/capacity handshake. Endpoints persist
//                        ACROSS runs: Release parks the live connection
//                        in a pool and the next Acquire hands it out
//                        again — which is what lets a worker keep its
//                        shard slices hot (PersistentShardStore) and
//                        resume with zero download.
//
// The server/worker split follows the parameter-server architecture
// (scheduler hands ranges to dial-in nodes); here the coordinator doubles
// as the scheduler and assignment is contiguous shard ranges weighted by
// the capacity each worker advertised in its Hello.
#ifndef SPINNER_DIST_REGISTRY_H_
#define SPINNER_DIST_REGISTRY_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/tcp_transport.h"
#include "dist/transport.h"

namespace spinner::dist {

/// One live, Hello-validated worker connection.
struct WorkerEndpoint {
  UnixSocket socket;
  /// Child pid for forked workers; -1 for dial-in (remote) workers.
  pid_t pid = -1;
  /// Capacity the worker advertised in its Hello (>= 1).
  int64_t capacity = 1;
  /// Monotonic connection id assigned by the transport (diagnostics).
  uint64_t id = 0;
};

/// Supplies and retires worker connections. Implementations own the
/// lifecycle (fork/reap, accept/pool); the coordinator owns the protocol.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* name() const = 0;

  /// Produces `num_workers` live endpoints whose Hello handshake has been
  /// consumed and validated. `options` are the frame-transport options
  /// both sides of every connection must share. `wait_ms` bounds the wait
  /// for endpoints to materialize: the initial fleet passes none and gets
  /// the transport's own handshake bound; a recovery top-up passes its rpc
  /// timeout, so a coordinator can fall back to the surviving workers
  /// instead of stalling on a replacement that may never dial in.
  virtual Result<std::vector<WorkerEndpoint>> Acquire(
      int num_workers, const TransportOptions& options,
      std::optional<int64_t> wait_ms) = 0;

  /// Returns endpoints after a clean run (TeardownAck received).
  /// UnixSocketTransport closes every connection, then reaps every child,
  /// so the children exit concurrently; WorkerRegistry parks the live
  /// connections for the next Acquire.
  virtual void Release(std::vector<WorkerEndpoint> endpoints) = 0;

  /// Retires an endpoint on the error path: the connection is closed
  /// unconditionally (and a forked child is SIGKILLed and reaped), so a
  /// wedged worker can never block coordinator shutdown.
  virtual void Destroy(WorkerEndpoint endpoint) = 0;
};

/// The single-host transport: Acquire forks one ShardWorker child per
/// endpoint, connected by AF_UNIX socketpair (the pre-TCP behavior). A
/// fork cannot fail to show up, so Acquire ignores `wait_ms`; each child's
/// Hello is bounded by 30 s.
class UnixSocketTransport final : public Transport {
 public:
  /// `worker_store_dir`: when non-empty, children host their slices in a
  /// PersistentShardStore rooted there (restart/resume works across
  /// fleets because the files outlive the forked processes).
  explicit UnixSocketTransport(std::string worker_store_dir = "");

  const char* name() const override { return "unix"; }
  Result<std::vector<WorkerEndpoint>> Acquire(
      int num_workers, const TransportOptions& options,
      std::optional<int64_t> wait_ms) override;
  void Release(std::vector<WorkerEndpoint> endpoints) override;
  void Destroy(WorkerEndpoint endpoint) override;

 private:
  std::string worker_store_dir_;
  uint64_t next_id_ = 1;
};

struct RegistryOptions {
  /// "host:port" to listen on; port 0 binds an ephemeral port (read it
  /// back via address()).
  std::string listen_address = "127.0.0.1:0";
  /// Total time Acquire waits for the fleet to dial in and complete the
  /// Hello handshake.
  int64_t handshake_timeout_ms = 30'000;
};

/// The TCP transport: a listener plus a pool of handshaken connections.
/// Thread-compatible, not thread-safe (one coordinator drives it).
class WorkerRegistry final : public Transport {
 public:
  /// Binds the listener; fails fast on an unusable address.
  static Result<std::unique_ptr<WorkerRegistry>> Listen(
      RegistryOptions options);

  const char* name() const override { return "tcp"; }

  /// The bound "host:port" workers dial.
  const std::string& address() const { return listener_.address(); }

  /// Pooled (idle, previously released) connections right now.
  int num_pooled() const { return static_cast<int>(pool_.size()); }
  /// Hello handshakes completed over this registry's lifetime.
  int64_t handshakes_completed() const { return handshakes_completed_; }
  /// Dial-ins rejected (bad version / malformed Hello).
  int64_t handshakes_rejected() const { return handshakes_rejected_; }

  /// Hands out pooled connections first (dropping any that died since
  /// release), then accepts new dial-ins until `num_workers` endpoints
  /// are ready or `wait_ms` (default: the handshake timeout) elapses
  /// (IOError naming how many arrived). A rejected handshake (version
  /// mismatch) gets an Error frame and its connection closed, and does not
  /// count.
  Result<std::vector<WorkerEndpoint>> Acquire(
      int num_workers, const TransportOptions& options,
      std::optional<int64_t> wait_ms) override;

  void Release(std::vector<WorkerEndpoint> endpoints) override;
  void Destroy(WorkerEndpoint endpoint) override;

  /// Elastic scale-in: closes pooled connections until at most `keep`
  /// remain (newest releases drained first) and returns how many were
  /// closed. A drained dial-in worker sees EOF on its coordinator
  /// connection and exits cleanly (RunTcpWorker returns 0) — the
  /// registry-side half of a controller shrinking the fleet. Connections
  /// currently checked out by a run are untouched; scale-*out* needs no
  /// registry call at all, the next Acquire simply waits for more
  /// dial-ins.
  int DrainPooled(int keep);

 private:
  WorkerRegistry() = default;

  TcpListener listener_;
  RegistryOptions options_;
  std::vector<WorkerEndpoint> pool_;
  uint64_t next_id_ = 1;
  int64_t handshakes_completed_ = 0;
  int64_t handshakes_rejected_ = 0;
};

}  // namespace spinner::dist

#endif  // SPINNER_DIST_REGISTRY_H_
