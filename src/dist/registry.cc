#include "dist/registry.h"

#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "dist/wire_format.h"
#include "dist/worker.h"

namespace spinner::dist {

namespace {

/// Waits for bytes on `fd` within `timeout_ms`, so a dial-in that never
/// sends its Hello cannot park the registry forever.
Status PollReadable(int fd, int64_t timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  const int ready =
      poll(&p, 1, static_cast<int>(timeout_ms < 0 ? 0 : timeout_ms));
  if (ready < 0) {
    return Status::IOError(StrFormat("poll(handshake): %s", strerror(errno)));
  }
  if (ready == 0) {
    return Status::IOError(
        StrFormat("no Hello received within %lld ms",
                  static_cast<long long>(timeout_ms)));
  }
  return Status::OK();
}

/// Consumes the Hello a freshly connected worker must send first, and
/// validates it. A version mismatch is answered with an Error frame (the
/// worker prints it and exits) before the failure is returned.
Result<HelloMessage> RecvHello(int fd, const TransportOptions& options,
                               int64_t timeout_ms) {
  const int64_t deadline =
      MonotonicNowMs() + (timeout_ms < 0 ? 0 : timeout_ms);
  SPINNER_RETURN_IF_ERROR(PollReadable(fd, timeout_ms));
  // The remaining budget bounds the Hello bytes themselves: a dial-in that
  // sends half a frame and stalls is rejected (DeadlineExceeded from the
  // transport), not allowed to park the registry.
  SPINNER_ASSIGN_OR_RETURN(
      Frame frame,
      RecvMessage(fd, options, /*counters=*/nullptr,
                  /*timeout_ms=*/
                  std::max<int64_t>(deadline - MonotonicNowMs(), 1)));
  if (frame.type != static_cast<uint32_t>(MessageType::kHello)) {
    return Status::InvalidArgument(StrFormat(
        "expected Hello as the first message, got frame type %u",
        frame.type));
  }
  SPINNER_ASSIGN_OR_RETURN(HelloMessage hello,
                           HelloMessage::Decode(frame.payload));
  if (hello.protocol_version != kProtocolVersion) {
    const std::string reason = StrFormat(
        "protocol version mismatch: worker speaks %u, coordinator speaks %u",
        hello.protocol_version, kProtocolVersion);
    std::span<const uint8_t> payload(
        reinterpret_cast<const uint8_t*>(reason.data()), reason.size());
    (void)SendMessage(fd, static_cast<uint32_t>(MessageType::kError),
                      payload, options, /*message_id=*/0);
    return Status::InvalidArgument(reason);
  }
  if (hello.capacity < 1) {
    return Status::InvalidArgument(StrFormat(
        "worker advertised capacity %lld; must be >= 1",
        static_cast<long long>(hello.capacity)));
  }
  return hello;
}

/// Closes every fd except stdio and `keep`, in a freshly forked child.
/// Uses the close_range syscall — a pure syscall is safe after forking a
/// multithreaded parent (fault-proxy pumps may be running), where
/// opendir("/proc/self/fd") is not.
void CloseAllFdsExcept(int keep) {
  bool ok = true;
  if (keep > 3) {
    ok = syscall(SYS_close_range, 3u, static_cast<unsigned>(keep) - 1,
                 0u) == 0;
  }
  ok = syscall(SYS_close_range, static_cast<unsigned>(keep) + 1, ~0u,
               0u) == 0 &&
       ok;
  if (!ok) {
    // Pre-5.9 kernel: bounded brute force.
    for (int fd = 3; fd < 4096; ++fd) {
      if (fd != keep) ::close(fd);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// UnixSocketTransport
// ---------------------------------------------------------------------------

UnixSocketTransport::UnixSocketTransport(std::string worker_store_dir)
    : worker_store_dir_(std::move(worker_store_dir)) {}

Result<std::vector<WorkerEndpoint>> UnixSocketTransport::Acquire(
    int num_workers, const TransportOptions& options,
    std::optional<int64_t> /*wait_ms*/) {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  std::vector<WorkerEndpoint> endpoints;
  endpoints.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    auto pair = CreateSocketPair();
    if (!pair.ok()) {
      for (auto& ep : endpoints) Destroy(std::move(ep));
      return pair.status();
    }
    const pid_t pid = fork();
    if (pid < 0) {
      for (auto& ep : endpoints) Destroy(std::move(ep));
      return Status::IOError(StrFormat("fork: %s", strerror(errno)));
    }
    if (pid == 0) {
      // Child: keep only our end of our pair. fork() copied every fd the
      // coordinator holds — earlier workers' sockets, and (when this is a
      // recovery top-up mid-run) the surviving workers' connections and
      // any fault-proxy fds. A stray duplicate of another connection's
      // write end would keep its peer from ever reading EOF, so a worker
      // release (or a coordinator crash) could hang the fleet.
      CloseAllFdsExcept(pair->second.fd());
      WorkerLoopOptions loop;
      loop.store_dir = worker_store_dir_;
      _exit(RunShardWorkerLoop(pair->second.fd(), options, loop));
    }
    pair->second.Close();
    auto hello = RecvHello(pair->first.fd(), options,
                           /*timeout_ms=*/30'000);
    if (!hello.ok()) {
      WorkerEndpoint broken;
      broken.socket = std::move(pair->first);
      broken.pid = pid;
      Destroy(std::move(broken));
      for (auto& ep : endpoints) Destroy(std::move(ep));
      return hello.status();
    }
    WorkerEndpoint ep;
    ep.socket = std::move(pair->first);
    ep.pid = pid;
    ep.capacity = hello->capacity;
    ep.id = next_id_++;
    endpoints.push_back(std::move(ep));
  }
  return endpoints;
}

void UnixSocketTransport::Release(std::vector<WorkerEndpoint> endpoints) {
  // Closing our end is the child's signal to finish: an idle worker reads
  // EOF and exits 0. Every end is closed before the first wait, so the
  // children wind down together.
  for (WorkerEndpoint& endpoint : endpoints) endpoint.socket.Close();
  for (const WorkerEndpoint& endpoint : endpoints) {
    if (endpoint.pid > 0) {
      int wstatus = 0;
      (void)waitpid(endpoint.pid, &wstatus, 0);
    }
  }
}

void UnixSocketTransport::Destroy(WorkerEndpoint endpoint) {
  endpoint.socket.Close();
  if (endpoint.pid > 0) {
    (void)kill(endpoint.pid, SIGKILL);
    int wstatus = 0;
    (void)waitpid(endpoint.pid, &wstatus, 0);
  }
}

// ---------------------------------------------------------------------------
// WorkerRegistry
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WorkerRegistry>> WorkerRegistry::Listen(
    RegistryOptions options) {
  if (options.handshake_timeout_ms < 1) {
    return Status::InvalidArgument("handshake_timeout_ms must be >= 1");
  }
  SPINNER_ASSIGN_OR_RETURN(TcpListener listener,
                           TcpListener::Bind(options.listen_address));
  std::unique_ptr<WorkerRegistry> registry(new WorkerRegistry());
  registry->listener_ = std::move(listener);
  registry->options_ = std::move(options);
  return registry;
}

Result<std::vector<WorkerEndpoint>> WorkerRegistry::Acquire(
    int num_workers, const TransportOptions& options,
    std::optional<int64_t> wait_ms) {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  std::vector<WorkerEndpoint> endpoints;
  endpoints.reserve(static_cast<size_t>(num_workers));

  // Pooled connections first. An idle worker sends nothing, so a readable
  // pooled socket means EOF or a stray byte — either way the worker is
  // not reusable; drop it and let a fresh dial-in take the slot.
  while (!pool_.empty() &&
         endpoints.size() < static_cast<size_t>(num_workers)) {
    WorkerEndpoint ep = std::move(pool_.front());
    pool_.erase(pool_.begin());
    pollfd p{};
    p.fd = ep.socket.fd();
    p.events = POLLIN;
    const int ready = poll(&p, 1, 0);
    if (ready != 0) {
      ep.socket.Close();
      continue;
    }
    endpoints.push_back(std::move(ep));
  }

  const int64_t timeout_ms =
      wait_ms ? std::max<int64_t>(*wait_ms, 1) : options_.handshake_timeout_ms;
  const int64_t deadline = MonotonicNowMs() + timeout_ms;
  while (endpoints.size() < static_cast<size_t>(num_workers)) {
    const int64_t remaining = deadline - MonotonicNowMs();
    if (remaining <= 0) {
      return Status::IOError(StrFormat(
          "only %d of %d workers dialed in within %lld ms",
          static_cast<int>(endpoints.size()), num_workers,
          static_cast<long long>(timeout_ms)));
    }
    auto conn = listener_.AcceptWithin(remaining);
    if (!conn.ok()) {
      return Status::IOError(StrFormat(
          "only %d of %d workers dialed in within %lld ms (%s)",
          static_cast<int>(endpoints.size()), num_workers,
          static_cast<long long>(timeout_ms),
          conn.status().message().c_str()));
    }
    auto hello = RecvHello(conn->fd(), options, deadline - MonotonicNowMs());
    if (!hello.ok()) {
      // A bad dial-in (wrong version, garbage, silent) is not fatal to
      // the fleet: close it and keep waiting for real workers.
      ++handshakes_rejected_;
      conn->Close();
      continue;
    }
    WorkerEndpoint ep;
    ep.socket = std::move(*conn);
    ep.capacity = hello->capacity;
    ep.id = next_id_++;
    ++handshakes_completed_;
    endpoints.push_back(std::move(ep));
  }
  return endpoints;
}

void WorkerRegistry::Release(std::vector<WorkerEndpoint> endpoints) {
  for (WorkerEndpoint& endpoint : endpoints) {
    if (endpoint.socket.valid()) pool_.push_back(std::move(endpoint));
  }
}

void WorkerRegistry::Destroy(WorkerEndpoint endpoint) {
  endpoint.socket.Close();
}

int WorkerRegistry::DrainPooled(int keep) {
  if (keep < 0) keep = 0;
  int drained = 0;
  while (static_cast<int>(pool_.size()) > keep) {
    // Closing the coordinator side is the whole drain protocol: the
    // dial-in worker's serve loop reads EOF and exits 0.
    pool_.back().socket.Close();
    pool_.pop_back();
    ++drained;
  }
  return drained;
}

}  // namespace spinner::dist
