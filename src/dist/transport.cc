#include "dist/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/fnv.h"
#include "common/string_util.h"

namespace spinner::dist {

namespace {

/// Header layout: magic u32 | type u32 | payload_size u64 (little-endian).
constexpr size_t kHeaderSize = kFrameHeaderSize;

/// Chunk envelope layout (little-endian, packed):
///   message_id u64 | inner_type u32 | chunk_index u32 | chunk_count u32 |
///   total_size u64 | checksum u64
constexpr size_t kChunkEnvelopeSize = 36;

// SpinnerConfig::Validate repeats kMinFramePayload as a literal (the
// spinner/ layer cannot include dist/); keep them in sync here.
static_assert(kMinFramePayload == 64,
              "update SpinnerConfig::Validate's wire_max_payload bound");
static_assert(kMinFramePayload > kChunkEnvelopeSize,
              "every legal frame must fit the chunk envelope plus bytes");

struct ChunkEnvelope {
  uint64_t message_id = 0;
  uint32_t inner_type = 0;
  uint32_t chunk_index = 0;
  uint32_t chunk_count = 0;
  uint64_t total_size = 0;
  uint64_t checksum = 0;
};

void PutEnvelope(const ChunkEnvelope& env, uint8_t* out) {
  std::memcpy(out, &env.message_id, 8);
  std::memcpy(out + 8, &env.inner_type, 4);
  std::memcpy(out + 12, &env.chunk_index, 4);
  std::memcpy(out + 16, &env.chunk_count, 4);
  std::memcpy(out + 20, &env.total_size, 8);
  std::memcpy(out + 28, &env.checksum, 8);
}

Result<ChunkEnvelope> ParseEnvelope(std::span<const uint8_t> payload) {
  if (payload.size() < kChunkEnvelopeSize) {
    return Status::InvalidArgument(
        StrFormat("chunk frame of %zu bytes is smaller than the %zu-byte "
                  "envelope",
                  payload.size(), kChunkEnvelopeSize));
  }
  ChunkEnvelope env;
  std::memcpy(&env.message_id, payload.data(), 8);
  std::memcpy(&env.inner_type, payload.data() + 8, 4);
  std::memcpy(&env.chunk_index, payload.data() + 12, 4);
  std::memcpy(&env.chunk_count, payload.data() + 16, 4);
  std::memcpy(&env.total_size, payload.data() + 20, 8);
  std::memcpy(&env.checksum, payload.data() + 28, 8);
  return env;
}

/// Blocks until `fd` is readable (or hung up — the following recv reports
/// EOF/reset as its own IOError) or `deadline_ms` (absolute CLOCK_MONOTONIC,
/// < 0 = none) passes. The wait wakes every `poll_period_ms` to re-check
/// the clock, so a deadline is honored even across spurious wakeups. A
/// peer that stays connected but sends nothing surfaces DeadlineExceeded —
/// deliberately distinct from a dead peer's IOError.
Status AwaitReadable(int fd, int64_t deadline_ms, int64_t poll_period_ms,
                     size_t received, size_t size) {
  for (;;) {
    const int64_t remaining = deadline_ms - MonotonicNowMs();
    if (remaining <= 0) {
      return Status::DeadlineExceeded(
          StrFormat("read deadline exceeded: peer connected but silent "
                    "after %zu of %zu bytes",
                    received, size));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int slice = static_cast<int>(
        std::min<int64_t>(remaining, std::max<int64_t>(poll_period_ms, 1)));
    const int rc = ::poll(&pfd, 1, slice);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("poll failed: %s", std::strerror(errno)));
    }
    if (rc > 0) return Status::OK();
  }
}

uint64_t ClampFramePayload(uint64_t value) {
  return std::clamp(value, kMinFramePayload, kMaxFramePayload);
}

void CountFrame(WireCounters* counters, int64_t WireCounters::* bytes,
                int64_t WireCounters::* frames, size_t payload_size) {
  if (counters == nullptr) return;
  counters->*bytes += static_cast<int64_t>(kHeaderSize + payload_size);
  counters->*frames += 1;
}

}  // namespace

int64_t MonotonicNowMs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1'000'000;
}

Status SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of SIGPIPE, so a
    // crashed worker surfaces as a Status the coordinator can act on.
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("send failed: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, uint8_t* data, size_t size, bool* got_any,
               int64_t timeout_ms, int64_t poll_period_ms) {
  size_t received = 0;
  int64_t deadline_ms = timeout_ms < 0 ? -1 : MonotonicNowMs() + timeout_ms;
  while (received < size) {
    if (deadline_ms >= 0) {
      SPINNER_RETURN_IF_ERROR(AwaitReadable(fd, deadline_ms, poll_period_ms,
                                            received, size));
    }
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("recv failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IOError(
          received == 0 && !*got_any
              ? "peer closed the connection"
              : StrFormat("truncated frame: peer closed after %zu of %zu "
                          "bytes",
                          received, size));
    }
    *got_any = true;
    received += static_cast<size_t>(n);
    if (deadline_ms >= 0) deadline_ms = MonotonicNowMs() + timeout_ms;
  }
  return Status::OK();
}

void UnixSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::pair<UnixSocket, UnixSocket>> CreateSocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError(
        StrFormat("socketpair failed: %s", std::strerror(errno)));
  }
  return std::make_pair(UnixSocket(fds[0]), UnixSocket(fds[1]));
}

TransportOptions TransportOptions::FromEnv() {
  TransportOptions options;
  if (const char* env = std::getenv("SPINNER_WIRE_MAX_PAYLOAD");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      options.max_frame_payload = ClampFramePayload(parsed);
    }
  }
  return options;
}

TransportOptions TransportOptions::Resolve(
    uint64_t max_frame_payload_override) {
  TransportOptions options = FromEnv();
  if (max_frame_payload_override != 0) {
    options.max_frame_payload = ClampFramePayload(max_frame_payload_override);
  }
  return options;
}

Status SendFrame(int fd, uint32_t type, std::span<const uint8_t> payload,
                 const TransportOptions& options) {
  if (payload.size() > options.max_frame_payload) {
    return Status::InvalidArgument(
        StrFormat("frame payload of %zu bytes exceeds the %llu-byte limit",
                  payload.size(),
                  static_cast<unsigned long long>(
                      options.max_frame_payload)));
  }
  uint8_t header[kHeaderSize];
  const uint32_t magic = kFrameMagic;
  const uint64_t size = payload.size();
  std::memcpy(header, &magic, sizeof(magic));
  std::memcpy(header + 4, &type, sizeof(type));
  std::memcpy(header + 8, &size, sizeof(size));
  SPINNER_RETURN_IF_ERROR(SendAll(fd, header, sizeof(header)));
  return SendAll(fd, payload.data(), payload.size());
}

Result<Frame> RecvFrame(int fd, const TransportOptions& options,
                        int64_t timeout_ms, int64_t poll_period_ms) {
  uint8_t header[kHeaderSize];
  bool got_any = false;
  SPINNER_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header), &got_any,
                                  timeout_ms, poll_period_ms));
  uint32_t magic = 0;
  uint64_t size = 0;
  Frame frame;
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&frame.type, header + 4, sizeof(frame.type));
  std::memcpy(&size, header + 8, sizeof(size));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (stream desync?)");
  }
  if (size > options.max_frame_payload) {
    return Status::InvalidArgument(
        StrFormat("oversized frame: header announces %llu bytes (limit "
                  "%llu)",
                  static_cast<unsigned long long>(size),
                  static_cast<unsigned long long>(
                      options.max_frame_payload)));
  }
  frame.payload.resize(static_cast<size_t>(size));
  SPINNER_RETURN_IF_ERROR(RecvAll(fd, frame.payload.data(),
                                  frame.payload.size(), &got_any, timeout_ms,
                                  poll_period_ms));
  return frame;
}

Status SendMessage(int fd, uint32_t type, std::span<const uint8_t> payload,
                   const TransportOptions& options, uint64_t message_id,
                   WireCounters* counters) {
  if (type == kChunkFrameType) {
    return Status::InvalidArgument(
        "message type collides with the reserved chunk frame type");
  }
  if (options.max_frame_payload < kMinFramePayload) {
    return Status::InvalidArgument(
        StrFormat("max_frame_payload %llu is below the %llu-byte minimum",
                  static_cast<unsigned long long>(options.max_frame_payload),
                  static_cast<unsigned long long>(kMinFramePayload)));
  }
  if (payload.size() <= options.max_frame_payload) {
    SPINNER_RETURN_IF_ERROR(SendFrame(fd, type, payload, options));
    CountFrame(counters, &WireCounters::bytes_sent,
               &WireCounters::frames_sent, payload.size());
    return Status::OK();
  }

  const uint64_t capacity = options.max_frame_payload - kChunkEnvelopeSize;
  const uint64_t total = payload.size();
  const uint64_t count = (total + capacity - 1) / capacity;
  if (count > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("message of %llu bytes needs more than 2^32 chunks at a "
                  "%llu-byte frame limit",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(
                      options.max_frame_payload)));
  }
  ChunkEnvelope env;
  env.message_id = message_id;
  env.inner_type = type;
  env.chunk_count = static_cast<uint32_t>(count);
  env.total_size = total;
  env.checksum = ChecksumBytes(payload);
  std::vector<uint8_t> buf;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t begin = i * capacity;
    const uint64_t size = std::min(capacity, total - begin);
    env.chunk_index = static_cast<uint32_t>(i);
    buf.resize(kChunkEnvelopeSize + size);
    PutEnvelope(env, buf.data());
    std::memcpy(buf.data() + kChunkEnvelopeSize, payload.data() + begin,
                static_cast<size_t>(size));
    SPINNER_RETURN_IF_ERROR(SendFrame(fd, kChunkFrameType, buf, options));
    CountFrame(counters, &WireCounters::bytes_sent,
               &WireCounters::frames_sent, buf.size());
  }
  if (counters != nullptr) ++counters->chunked_messages_sent;
  return Status::OK();
}

Result<Frame> RecvMessage(int fd, const TransportOptions& options,
                          WireCounters* counters, int64_t timeout_ms,
                          int64_t poll_period_ms) {
  SPINNER_ASSIGN_OR_RETURN(
      Frame first, RecvFrame(fd, options, timeout_ms, poll_period_ms));
  CountFrame(counters, &WireCounters::bytes_received,
             &WireCounters::frames_received, first.payload.size());
  if (first.type != kChunkFrameType) return first;

  SPINNER_ASSIGN_OR_RETURN(const ChunkEnvelope head,
                           ParseEnvelope(first.payload));
  // Every reassembly bound is validated against the first envelope BEFORE
  // the message buffer is allocated; later chunks must repeat the envelope
  // verbatim, so a corrupt or reordered stream fails on the first
  // inconsistent frame instead of hanging or over-allocating.
  if (head.chunk_count < 2) {
    return Status::InvalidArgument(
        StrFormat("chunked message %llu announces %u chunks (minimum 2)",
                  static_cast<unsigned long long>(head.message_id),
                  head.chunk_count));
  }
  if (head.chunk_index != 0) {
    return Status::InvalidArgument(
        StrFormat("chunked message %llu started at chunk %u, not 0 "
                  "(out-of-order or missing chunks)",
                  static_cast<unsigned long long>(head.message_id),
                  head.chunk_index));
  }
  if (head.inner_type == kChunkFrameType) {
    return Status::InvalidArgument("chunk envelope nests a chunk frame");
  }
  if (head.total_size > options.max_message_size) {
    return Status::InvalidArgument(
        StrFormat("chunked message announces %llu bytes (limit %llu)",
                  static_cast<unsigned long long>(head.total_size),
                  static_cast<unsigned long long>(options.max_message_size)));
  }
  if (head.chunk_count > head.total_size) {
    // Every chunk must carry at least one byte, so a count above the total
    // can never be satisfied — reject the overflow up front.
    return Status::InvalidArgument(
        StrFormat("chunked message of %llu bytes announces %u chunks — "
                  "more chunks than bytes",
                  static_cast<unsigned long long>(head.total_size),
                  head.chunk_count));
  }
  if (options.max_frame_payload > kChunkEnvelopeSize &&
      head.total_size > static_cast<uint64_t>(head.chunk_count) *
                            (options.max_frame_payload -
                             kChunkEnvelopeSize)) {
    // Both sides share one TransportOptions, so a sane sender's chunks can
    // carry at most count × per-chunk capacity bytes. Requiring the two
    // header fields to be mutually consistent means a corrupted
    // total_size (or count) is rejected here — BEFORE the total is
    // allocated — instead of slipping a huge resize under the
    // max_message_size ceiling.
    return Status::InvalidArgument(
        StrFormat("chunked message announces %llu bytes in %u chunks — "
                  "more than its chunks can carry at a %llu-byte frame "
                  "limit",
                  static_cast<unsigned long long>(head.total_size),
                  head.chunk_count,
                  static_cast<unsigned long long>(
                      options.max_frame_payload)));
  }

  Frame message;
  message.type = head.inner_type;
  message.payload.resize(static_cast<size_t>(head.total_size));
  uint64_t received = 0;
  for (uint32_t index = 0;; ++index) {
    ChunkEnvelope env;
    std::span<const uint8_t> bytes;
    if (index == 0) {
      env = head;
      bytes = std::span<const uint8_t>(first.payload)
                  .subspan(kChunkEnvelopeSize);
    } else {
      SPINNER_ASSIGN_OR_RETURN(
          Frame frame, RecvFrame(fd, options, timeout_ms, poll_period_ms));
      CountFrame(counters, &WireCounters::bytes_received,
                 &WireCounters::frames_received, frame.payload.size());
      if (frame.type != kChunkFrameType) {
        return Status::InvalidArgument(
            StrFormat("expected chunk %u/%u of message %llu, got a frame "
                      "of type %u (missing chunks)",
                      index, head.chunk_count,
                      static_cast<unsigned long long>(head.message_id),
                      frame.type));
      }
      SPINNER_ASSIGN_OR_RETURN(env, ParseEnvelope(frame.payload));
      if (env.message_id != head.message_id ||
          env.inner_type != head.inner_type ||
          env.chunk_count != head.chunk_count ||
          env.total_size != head.total_size ||
          env.checksum != head.checksum) {
        return Status::InvalidArgument(
            StrFormat("chunk envelope of message %llu changed mid-message "
                      "(interleaved or corrupt stream)",
                      static_cast<unsigned long long>(head.message_id)));
      }
      if (env.chunk_index != index) {
        return Status::InvalidArgument(
            StrFormat("message %llu: expected chunk %u, got chunk %u "
                      "(duplicate or out-of-order)",
                      static_cast<unsigned long long>(head.message_id),
                      index, env.chunk_index));
      }
      // The frame's payload outlives this iteration only through the copy
      // below, so viewing it via `first` keeps one code path.
      first.payload = std::move(frame.payload);
      bytes = std::span<const uint8_t>(first.payload)
                  .subspan(kChunkEnvelopeSize);
    }
    if (bytes.empty()) {
      return Status::InvalidArgument(
          StrFormat("message %llu chunk %u is zero-length",
                    static_cast<unsigned long long>(head.message_id),
                    index));
    }
    if (bytes.size() > head.total_size - received) {
      return Status::InvalidArgument(
          StrFormat("message %llu chunk %u carries %zu bytes but only "
                    "%llu remain (oversized chunk)",
                    static_cast<unsigned long long>(head.message_id), index,
                    bytes.size(),
                    static_cast<unsigned long long>(
                        head.total_size - received)));
    }
    std::memcpy(message.payload.data() + received, bytes.data(),
                bytes.size());
    received += bytes.size();
    if (index + 1 == head.chunk_count) break;
  }
  if (received != head.total_size) {
    return Status::InvalidArgument(
        StrFormat("message %llu reassembled to %llu of %llu bytes "
                  "(truncated chunked message)",
                  static_cast<unsigned long long>(head.message_id),
                  static_cast<unsigned long long>(received),
                  static_cast<unsigned long long>(head.total_size)));
  }
  if (ChecksumBytes(message.payload) != head.checksum) {
    return Status::InvalidArgument(
        StrFormat("message %llu failed its reassembly checksum",
                  static_cast<unsigned long long>(head.message_id)));
  }
  if (counters != nullptr) ++counters->chunked_messages_received;
  return message;
}

}  // namespace spinner::dist
