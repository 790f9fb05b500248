#include "dist/fault_injection.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"

namespace spinner::dist {

namespace {

/// Uniform [0, 1) from (seed, connection ordinal, direction, frame index):
/// the deterministic per-frame coin of probabilistic rules.
double FrameCoin(uint64_t seed, int ordinal, int direction,
                 int64_t frame_index) {
  uint64_t h = SplitMix64(seed ^ 0x5350464cull);  // "SPFL"
  h = SplitMix64(h ^ static_cast<uint64_t>(ordinal));
  h = SplitMix64(h ^ (static_cast<uint64_t>(direction) << 32));
  h = SplitMix64(h ^ static_cast<uint64_t>(frame_index));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Strict unsigned parser for the plan seed: the whole value must be a
/// number. A typo'd plan must be rejected, not silently read as 0.
bool ParseU64(const std::string& value, uint64_t* out) {
  if (value.empty() || value[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) return false;
  *out = parsed;
  return true;
}

bool RuleMatchesDirection(const FaultRule& rule, bool coordinator_to_worker) {
  switch (rule.direction) {
    case FaultDirection::kCoordinatorToWorker:
      return coordinator_to_worker;
    case FaultDirection::kWorkerToCoordinator:
      return !coordinator_to_worker;
    case FaultDirection::kBoth:
      return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan::Parse
// ---------------------------------------------------------------------------

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t end = std::min(spec.find(';', pos), spec.size());
    const std::string token = spec.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    if (token.rfind("seed=", 0) == 0) {
      if (!ParseU64(token.substr(5), &plan.seed)) {
        return Status::InvalidArgument(StrFormat(
            "fault plan: seed '%s' is not a number", token.c_str() + 5));
      }
      continue;
    }
    FaultRule rule;
    size_t field_pos = 0;
    bool first_field = true;
    while (field_pos <= token.size()) {
      const size_t field_end = std::min(token.find(':', field_pos),
                                        token.size());
      const std::string field = token.substr(field_pos,
                                             field_end - field_pos);
      field_pos = field_end + 1;
      if (field.empty()) continue;
      if (first_field) {
        first_field = false;
        if (field == "drop") {
          rule.action = FaultAction::kDrop;
        } else if (field == "delay") {
          rule.action = FaultAction::kDelay;
        } else if (field == "corrupt") {
          rule.action = FaultAction::kCorrupt;
        } else if (field == "close") {
          rule.action = FaultAction::kClose;
        } else {
          return Status::InvalidArgument(StrFormat(
              "fault plan: unknown action '%s' (want "
              "drop|delay|corrupt|close)",
              field.c_str()));
        }
        continue;
      }
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument(StrFormat(
            "fault plan: field '%s' is not key=value", field.c_str()));
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "dir") {
        if (value == "c2w") {
          rule.direction = FaultDirection::kCoordinatorToWorker;
        } else if (value == "w2c") {
          rule.direction = FaultDirection::kWorkerToCoordinator;
        } else if (value == "both") {
          rule.direction = FaultDirection::kBoth;
        } else {
          return Status::InvalidArgument(StrFormat(
              "fault plan: dir=%s (want c2w|w2c|both)", value.c_str()));
        }
      } else if (key == "worker") {
        int64_t worker = -1;
        if (value != "all" &&
            (!ParseInt64(value, &worker) || worker < 0 ||
             worker > std::numeric_limits<int>::max())) {
          return Status::InvalidArgument(StrFormat(
              "fault plan: worker=%s (want N in [0, INT_MAX] or all)",
              value.c_str()));
        }
        rule.worker = static_cast<int>(worker);
      } else if (key == "frame") {
        if (!ParseInt64(value, &rule.frame_index)) {
          return Status::InvalidArgument(StrFormat(
              "fault plan: frame=%s is not a number", value.c_str()));
        }
      } else if (key == "p") {
        // Written as a range test so that NaN fails it too.
        if (!ParseDouble(value, &rule.probability) ||
            !(rule.probability >= 0.0 && rule.probability <= 1.0)) {
          return Status::InvalidArgument(StrFormat(
              "fault plan: p=%s is not a probability in [0, 1]",
              value.c_str()));
        }
      } else if (key == "ms") {
        if (!ParseInt64(value, &rule.delay_ms) || rule.delay_ms < 0) {
          return Status::InvalidArgument(StrFormat(
              "fault plan: ms=%s is not a non-negative number",
              value.c_str()));
        }
      } else {
        return Status::InvalidArgument(StrFormat(
            "fault plan: unknown key '%s'", key.c_str()));
      }
    }
    if (first_field) {
      return Status::InvalidArgument("fault plan: empty rule");
    }
    if (rule.frame_index < 0 && rule.probability <= 0.0) {
      return Status::InvalidArgument(
          "fault plan: rule needs frame=N or p>0 to ever fire");
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Proxy
// ---------------------------------------------------------------------------

struct FaultInjectingTransport::Proxy {
  WorkerEndpoint real;
  /// Our end of the socketpair whose other end the coordinator holds.
  UnixSocket proxy_side;
  int coordinator_fd = -1;
  int ordinal = 0;
  int stop_pipe[2] = {-1, -1};
  std::thread to_worker;
  std::thread to_coordinator;
  /// Set by a kClose fault: the real connection is dead, never pool it.
  std::atomic<bool> closed{false};

  ~Proxy() {
    Stop();
    if (stop_pipe[0] >= 0) ::close(stop_pipe[0]);
    if (stop_pipe[1] >= 0) ::close(stop_pipe[1]);
  }

  void Stop() {
    if (stop_pipe[1] >= 0) {
      // Closing the write end makes the read end readable (EOF) — the
      // pumps' poll() wakes and they exit.
      ::close(stop_pipe[1]);
      stop_pipe[1] = -1;
    }
    if (to_worker.joinable()) to_worker.join();
    if (to_coordinator.joinable()) to_coordinator.join();
  }
};

namespace {

/// One direction of a proxy: frames from `src` are perturbed per the plan
/// and forwarded to `dst` until EOF, a close fault, or a stop signal.
/// A stream this pump cannot frame (bad magic / absurd size — never
/// produced by our own faults) degrades to skipping frame-granular
/// perturbation for the rest of the connection via raw passthrough.
void PumpFrames(int src, int dst, int real_fd, int proxy_fd, int stop_fd,
                bool coordinator_to_worker, int ordinal,
                const FaultPlan& plan, FaultCounters* counters,
                std::atomic<bool>* closed) {
  const int direction = coordinator_to_worker ? 0 : 1;
  int64_t frame_index = 0;
  bool raw_passthrough = false;
  std::vector<uint8_t> buffer;
  for (;;) {
    pollfd fds[2];
    fds[0] = {src, POLLIN, 0};
    fds[1] = {stop_fd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Stop requested (Release/Destroy): exit without touching either
    // side — the real connection may be on its way to a registry pool,
    // and a half-close here would make the idle worker read EOF and die.
    if (fds[1].revents != 0) return;
    if (fds[0].revents == 0) continue;

    if (raw_passthrough) {
      uint8_t chunk[4096];
      const ssize_t n = ::recv(src, chunk, sizeof chunk, 0);
      if (n <= 0 || !SendAll(dst, chunk, static_cast<size_t>(n)).ok()) break;
      continue;
    }

    // Reads may block briefly mid-frame once poll() saw the first byte;
    // that is fine for a proxy.
    bool got_any = false;
    uint8_t header[kFrameHeaderSize];
    if (!RecvAll(src, header, sizeof header, &got_any).ok()) break;
    uint32_t magic = 0;
    uint64_t payload_size = 0;
    std::memcpy(&magic, header, sizeof magic);
    std::memcpy(&payload_size, header + 8, sizeof payload_size);
    if (magic != kFrameMagic || payload_size > kMaxFramePayload) {
      raw_passthrough = true;
      if (!SendAll(dst, header, sizeof header).ok()) break;
      continue;
    }
    buffer.resize(static_cast<size_t>(payload_size));
    if (!RecvAll(src, buffer.data(), buffer.size(), &got_any).ok()) break;

    const FaultRule* fired = nullptr;
    for (const FaultRule& rule : plan.rules) {
      if (!RuleMatchesDirection(rule, coordinator_to_worker)) continue;
      if (rule.worker >= 0 && rule.worker != ordinal) continue;
      const bool fires =
          rule.frame_index >= 0
              ? rule.frame_index == frame_index
              : FrameCoin(plan.seed, ordinal, direction, frame_index) <
                    rule.probability;
      if (fires) {
        fired = &rule;
        break;
      }
    }
    ++frame_index;

    if (fired != nullptr) {
      switch (fired->action) {
        case FaultAction::kDrop:
          counters->frames_dropped.fetch_add(1);
          continue;  // swallowed
        case FaultAction::kDelay:
          counters->frames_delayed.fetch_add(1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fired->delay_ms));
          break;
        case FaultAction::kCorrupt:
          if (!buffer.empty()) {
            buffer.back() ^= 0x5a;
            counters->frames_corrupted.fetch_add(1);
          }
          break;
        case FaultAction::kClose:
          counters->connections_closed.fetch_add(1);
          closed->store(true);
          ::shutdown(real_fd, SHUT_RDWR);
          ::shutdown(proxy_fd, SHUT_RDWR);
          return;
      }
    }
    if (!SendAll(dst, header, sizeof header).ok() ||
        !SendAll(dst, buffer.data(), buffer.size()).ok()) {
      break;
    }
    counters->frames_forwarded.fetch_add(1);
  }
  // Source finished (peer EOF/error): propagate a half-close so the
  // destination's reader sees EOF exactly like a direct connection.
  ::shutdown(dst, SHUT_WR);
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

FaultInjectingTransport::FaultInjectingTransport(Transport* inner,
                                                 FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {}

FaultInjectingTransport::~FaultInjectingTransport() {
  // Anything still attached belongs to a coordinator being torn down;
  // stop the pumps and destroy the real connections.
  for (std::unique_ptr<Proxy>& proxy : proxies_) {
    proxy->Stop();
    inner_->Destroy(std::move(proxy->real));
  }
  proxies_.clear();
}

Result<WorkerEndpoint> FaultInjectingTransport::WrapEndpoint(
    WorkerEndpoint real) {
  auto pair = CreateSocketPair();
  if (!pair.ok()) {
    inner_->Destroy(std::move(real));
    return pair.status();
  }
  auto proxy = std::make_unique<Proxy>();
  if (::pipe(proxy->stop_pipe) != 0) {
    inner_->Destroy(std::move(real));
    return Status::IOError(
        StrFormat("pipe(fault proxy): %s", strerror(errno)));
  }
  proxy->ordinal = next_ordinal_++;
  WorkerEndpoint wrapped;
  wrapped.socket = std::move(pair->first);
  wrapped.pid = real.pid;
  wrapped.capacity = real.capacity;
  wrapped.id = real.id;
  proxy->coordinator_fd = wrapped.socket.fd();
  proxy->proxy_side = std::move(pair->second);
  proxy->real = std::move(real);

  const int real_fd = proxy->real.socket.fd();
  const int side_fd = proxy->proxy_side.fd();
  const int stop_fd = proxy->stop_pipe[0];
  Proxy* p = proxy.get();
  proxy->to_worker = std::thread([=, this] {
    PumpFrames(side_fd, real_fd, real_fd, side_fd, stop_fd,
               /*coordinator_to_worker=*/true, p->ordinal, plan_,
               &counters_, &p->closed);
  });
  proxy->to_coordinator = std::thread([=, this] {
    PumpFrames(real_fd, side_fd, real_fd, side_fd, stop_fd,
               /*coordinator_to_worker=*/false, p->ordinal, plan_,
               &counters_, &p->closed);
  });
  proxies_.push_back(std::move(proxy));
  return wrapped;
}

std::unique_ptr<FaultInjectingTransport::Proxy>
FaultInjectingTransport::DetachProxy(int coordinator_fd) {
  for (size_t i = 0; i < proxies_.size(); ++i) {
    if (proxies_[i]->coordinator_fd == coordinator_fd) {
      std::unique_ptr<Proxy> proxy = std::move(proxies_[i]);
      proxies_.erase(proxies_.begin() + static_cast<ptrdiff_t>(i));
      return proxy;
    }
  }
  return nullptr;
}

Result<std::vector<WorkerEndpoint>> FaultInjectingTransport::Acquire(
    int num_workers, const TransportOptions& options,
    std::optional<int64_t> wait_ms) {
  SPINNER_ASSIGN_OR_RETURN(std::vector<WorkerEndpoint> real,
                           inner_->Acquire(num_workers, options, wait_ms));
  std::vector<WorkerEndpoint> wrapped;
  wrapped.reserve(real.size());
  for (WorkerEndpoint& ep : real) {
    auto proxied = WrapEndpoint(std::move(ep));
    if (!proxied.ok()) {
      for (WorkerEndpoint& done : wrapped) Destroy(std::move(done));
      return proxied.status();
    }
    wrapped.push_back(std::move(*proxied));
  }
  return wrapped;
}

void FaultInjectingTransport::Release(std::vector<WorkerEndpoint> endpoints) {
  std::vector<WorkerEndpoint> real;
  for (WorkerEndpoint& endpoint : endpoints) {
    std::unique_ptr<Proxy> proxy = DetachProxy(endpoint.socket.fd());
    if (proxy == nullptr) {
      real.push_back(std::move(endpoint));
      continue;
    }
    // Stop the pumps BEFORE closing our proxy end: closing first would
    // wake the to-worker pump with a genuine source EOF, which it would
    // propagate onto the real connection — killing the worker we are
    // about to pool.
    proxy->Stop();
    endpoint.socket.Close();
    if (proxy->closed.load()) {
      // A close fault killed the real connection — never pool a corpse.
      inner_->Destroy(std::move(proxy->real));
    } else {
      real.push_back(std::move(proxy->real));
    }
  }
  inner_->Release(std::move(real));
}

void FaultInjectingTransport::Destroy(WorkerEndpoint endpoint) {
  std::unique_ptr<Proxy> proxy = DetachProxy(endpoint.socket.fd());
  if (proxy == nullptr) {
    inner_->Destroy(std::move(endpoint));
    return;
  }
  proxy->Stop();
  endpoint.socket.Close();
  inner_->Destroy(std::move(proxy->real));
}

}  // namespace spinner::dist
