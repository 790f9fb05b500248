#include "dist/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>

#include "common/string_util.h"

namespace spinner::dist {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, strerror(errno)));
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

void SleepMs(int64_t ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1'000'000;
  nanosleep(&ts, nullptr);
}

}  // namespace

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& address) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument(
        StrFormat("address '%s' is not host:port", address.c_str()));
  }
  const std::string host = address.substr(0, colon);
  const std::string port_str = address.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port < 0 ||
      port > 65535) {
    return Status::InvalidArgument(
        StrFormat("address '%s' has an invalid port", address.c_str()));
  }
  in_addr probe{};
  if (inet_pton(AF_INET, host.c_str(), &probe) != 1) {
    return Status::InvalidArgument(StrFormat(
        "address '%s' host is not an IPv4 dotted quad", address.c_str()));
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

Result<TcpListener> TcpListener::Bind(const std::string& address) {
  SPINNER_ASSIGN_OR_RETURN(auto host_port, ParseHostPort(address));
  UnixSocket fd(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  if (setsockopt(fd.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(host_port.second);
  inet_pton(AF_INET, host_port.first.c_str(), &addr.sin_addr);
  if (bind(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (listen(fd.fd(), SOMAXCONN) != 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(bound.sin_port);
  listener.address_ =
      StrFormat("%s:%u", host_port.first.c_str(),
                static_cast<unsigned>(listener.port_));
  return listener;
}

Result<UnixSocket> TcpListener::AcceptWithin(int64_t timeout_ms) {
  if (!fd_.valid()) {
    return Status::FailedPrecondition("listener is not bound");
  }
  pollfd p{};
  p.fd = fd_.fd();
  p.events = POLLIN;
  const int ready = poll(&p, 1, static_cast<int>(
                                    timeout_ms < 0 ? 0 : timeout_ms));
  if (ready < 0) return Errno("poll(listener)");
  if (ready == 0) {
    return Status::IOError(
        StrFormat("no worker dialed in within %lld ms",
                  static_cast<long long>(timeout_ms)));
  }
  UnixSocket conn(accept4(fd_.fd(), nullptr, nullptr, SOCK_CLOEXEC));
  if (!conn.valid()) return Errno("accept");
  SPINNER_RETURN_IF_ERROR(SetNoDelay(conn.fd()));
  return conn;
}

Result<UnixSocket> TcpDial(const std::string& address, int64_t timeout_ms) {
  SPINNER_ASSIGN_OR_RETURN(auto host_port, ParseHostPort(address));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(host_port.second);
  inet_pton(AF_INET, host_port.first.c_str(), &addr.sin_addr);
  const int64_t deadline =
      MonotonicNowMs() + (timeout_ms < 0 ? 0 : timeout_ms);
  for (;;) {
    UnixSocket fd(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return Errno("socket");
    if (connect(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
      SPINNER_RETURN_IF_ERROR(SetNoDelay(fd.fd()));
      return fd;
    }
    // Refused/unreachable just means the coordinator has not bound yet
    // (workers may start first); back off and retry until the deadline.
    if (errno != ECONNREFUSED && errno != ENETUNREACH &&
        errno != EHOSTUNREACH && errno != ETIMEDOUT) {
      return Errno("connect");
    }
    if (MonotonicNowMs() >= deadline) {
      return Status::IOError(StrFormat(
          "could not connect to %s within %lld ms", address.c_str(),
          static_cast<long long>(timeout_ms)));
    }
    SleepMs(50);
  }
}

}  // namespace spinner::dist
