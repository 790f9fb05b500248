// Frame transport for the cross-process execution mode: length-prefixed
// binary frames over Unix-domain stream sockets, plus a chunked message
// layer that streams payloads of any size across many frames. This is the
// lowest layer of the dist subsystem — it moves opaque byte payloads
// reliably (full messages or a clean Status error, never a torn read) and
// knows nothing about Spinner; message payload layouts live in
// dist/wire_format.h.
//
// The effective per-frame payload ceiling is a runtime knob
// (TransportOptions::max_frame_payload, default 1 GiB). SendMessage splits
// anything larger into chunk frames carrying a fixed envelope (message id,
// chunk index/count, total size, per-message checksum); RecvMessage
// reassembles them, rejecting out-of-order, duplicate, missing, zero-length
// and oversized chunks — and any total above max_message_size — BEFORE
// allocating, so no corrupt header can OOM or stall the receiver. Forcing
// max_frame_payload tiny (the wire-stress CI lane uses 4 KiB via
// SPINNER_WIRE_MAX_PAYLOAD) drives every chunk path on ordinary graphs.
//
// Failure semantics are load-bearing for the coordinator's no-hang
// guarantee: a peer that dies mid-superstep surfaces as an IOError from
// RecvFrame (EOF / ECONNRESET) or SendFrame (EPIPE — sends use
// MSG_NOSIGNAL, so a dead peer never raises SIGPIPE), and oversized or
// truncated frames are rejected with a descriptive Status instead of
// blocking on bytes that will never arrive.
#ifndef SPINNER_DIST_TRANSPORT_H_
#define SPINNER_DIST_TRANSPORT_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"

namespace spinner::dist {

/// Owning wrapper for one end of an AF_UNIX stream socket (or any fd).
class UnixSocket {
 public:
  UnixSocket() = default;
  explicit UnixSocket(int fd) : fd_(fd) {}
  ~UnixSocket() { Close(); }

  UnixSocket(UnixSocket&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  UnixSocket& operator=(UnixSocket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  void Close();

  /// Gives up ownership of the fd without closing it (used by the forked
  /// worker child, which inherits the descriptor across fork()).
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// A connected AF_UNIX SOCK_STREAM pair: .first stays with the
/// coordinator, .second goes to the forked worker.
Result<std::pair<UnixSocket, UnixSocket>> CreateSocketPair();

/// Frame header magic ("SPMF" little-endian) — rejects desynchronized or
/// foreign byte streams immediately.
inline constexpr uint32_t kFrameMagic = 0x464d5053u;

/// Frame header size: magic u32 | type u32 | payload_size u64. Exported so
/// frame-granular middleboxes (dist/fault_injection.h pumps frames through
/// a proxy) can parse the stream without re-deriving the layout.
inline constexpr size_t kFrameHeaderSize = 16;

/// Default liveness-poll period of deadline-bounded receives: while a
/// deadline is armed the receiver wakes at this granularity to re-check the
/// clock. Overridden by ExecutionOptions::heartbeat_period_ms plumbing.
inline constexpr int64_t kDefaultPollPeriodMs = 1'000;

/// Absolute ceiling on a single frame payload (1 GiB) and the default of
/// TransportOptions::max_frame_payload. A header announcing more than the
/// effective limit is rejected as malformed before any allocation, so a
/// corrupt length field cannot OOM the receiver or stall it waiting for
/// absent bytes.
inline constexpr uint64_t kMaxFramePayload = 1ull << 30;

/// Smallest configurable frame payload: the chunk envelope plus some
/// actual bytes must fit in every frame. SpinnerConfig::Validate repeats
/// this bound as a literal (spinner/ cannot include dist/); a static_assert
/// in transport.cc keeps the two in sync.
inline constexpr uint64_t kMinFramePayload = 64;

/// Default ceiling on a reassembled chunked message (1 TiB): the
/// allocation guard of the chunk layer, far above any realistic transfer
/// but finite so a corrupt total_size still fails cleanly.
inline constexpr uint64_t kMaxMessageSize = 1ull << 40;

/// Frame type reserved for chunk-envelope frames; dist/wire_format.h's
/// MessageType values must stay clear of it.
inline constexpr uint32_t kChunkFrameType = 0xffffffffu;

/// Runtime knobs of the transport. Both sides of a connection must use
/// the same options; the coordinator passes its options into the forked
/// worker, so one MultiProcessOptions is the single source of truth.
struct TransportOptions {
  /// Effective per-frame payload ceiling. Messages larger than this are
  /// chunked by SendMessage. Clamped to [kMinFramePayload,
  /// kMaxFramePayload] by FromEnv/Resolve.
  uint64_t max_frame_payload = kMaxFramePayload;

  /// Reassembly allocation guard: a chunked message announcing a larger
  /// total is rejected before allocation.
  uint64_t max_message_size = kMaxMessageSize;

  /// Default options, honoring the SPINNER_WIRE_MAX_PAYLOAD environment
  /// variable (bytes; clamped into the valid range) when set — how the
  /// wire-stress CI lane forces every chunk path without touching call
  /// sites.
  static TransportOptions FromEnv();

  /// FromEnv(), with `max_frame_payload_override` (when non-zero, e.g.
  /// SpinnerConfig::wire_max_payload) winning over the environment.
  static TransportOptions Resolve(uint64_t max_frame_payload_override);
};

/// Byte/frame counters of one connection endpoint, updated by
/// SendMessage/RecvMessage (header + payload bytes). The coordinator
/// aggregates these across workers — the observability hook behind the
/// O(boundary) wire-traffic assertions and the bench-smoke wire report.
struct WireCounters {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
  /// Messages that crossed the wire in more than one frame.
  int64_t chunked_messages_sent = 0;
  int64_t chunked_messages_received = 0;
};

/// One decoded frame: a type tag (dist/wire_format.h's MessageType) and an
/// opaque payload.
struct Frame {
  uint32_t type = 0;
  std::vector<uint8_t> payload;
};

/// Milliseconds on CLOCK_MONOTONIC: the clock of every deadline in dist/.
int64_t MonotonicNowMs();

/// Writes all `size` bytes of `data`. Blocks until done; IOError on a
/// closed/dead peer (MSG_NOSIGNAL: never a SIGPIPE).
Status SendAll(int fd, const uint8_t* data, size_t size);

/// Reads exactly `size` bytes. `*got_any` reports whether at least one byte
/// arrived, distinguishing a clean peer close (EOF at a frame boundary)
/// from a torn frame. `timeout_ms` (< 0 = none) bounds every wait for more
/// bytes; the deadline renews on progress, so only a peer that stops
/// sending entirely for a full timeout is declared hung (DeadlineExceeded).
Status RecvAll(int fd, uint8_t* data, size_t size, bool* got_any,
               int64_t timeout_ms = -1,
               int64_t poll_period_ms = kDefaultPollPeriodMs);

/// Writes one frame: { magic u32 | type u32 | payload_size u64 | payload }.
/// Fails (InvalidArgument) if the payload exceeds
/// `options.max_frame_payload` — callers with larger messages use
/// SendMessage. Blocks until fully written; IOError on a closed/dead peer.
Status SendFrame(int fd, uint32_t type, std::span<const uint8_t> payload,
                 const TransportOptions& options = {});

/// Reads exactly one frame. IOError on EOF or a short read (peer died,
/// truncated frame), InvalidArgument on bad magic or an announced payload
/// above `options.max_frame_payload`.
///
/// `timeout_ms` arms a read deadline: < 0 blocks forever (the idle-worker
/// default — a pooled worker legitimately waits days for its next Assign);
/// >= 0 bounds the wait for this frame's bytes and surfaces
/// DeadlineExceeded when the peer stays connected but silent — distinct
/// from the IOError of a dead peer, which the recovery layer treats
/// differently (a hung worker still needs its connection torn down). The
/// wait polls at `poll_period_ms` granularity.
Result<Frame> RecvFrame(int fd, const TransportOptions& options = {},
                        int64_t timeout_ms = -1,
                        int64_t poll_period_ms = kDefaultPollPeriodMs);

/// Sends one message of any size: payloads within the frame limit travel
/// as one plain frame; larger payloads are split into chunk frames whose
/// envelope carries `message_id` (unique per sender), the original `type`,
/// chunk index/count, the total size and an FNV-1a checksum over the whole
/// payload. `counters` (optional) accrues bytes/frames sent.
Status SendMessage(int fd, uint32_t type, std::span<const uint8_t> payload,
                   const TransportOptions& options, uint64_t message_id,
                   WireCounters* counters = nullptr);

/// Receives one message: a plain frame is returned as-is; a chunk frame
/// triggers reassembly of the full message, validating the envelope of
/// every chunk (same message id/type/count/total/checksum, strictly
/// sequential indices, no zero-length or oversized chunks) and the total
/// size against `options.max_message_size` BEFORE allocating, then the
/// per-message checksum after the last chunk. Every violation is a
/// descriptive InvalidArgument — never a hang or an unbounded allocation.
///
/// `timeout_ms` / `poll_period_ms` arm the per-frame read deadline of
/// RecvFrame on every frame of the message: a peer streaming a large
/// chunked message stays alive as long as it makes frame-level progress,
/// but one that stalls mid-message surfaces DeadlineExceeded within one
/// timeout.
Result<Frame> RecvMessage(int fd, const TransportOptions& options = {},
                          WireCounters* counters = nullptr,
                          int64_t timeout_ms = -1,
                          int64_t poll_period_ms = kDefaultPollPeriodMs);

}  // namespace spinner::dist

#endif  // SPINNER_DIST_TRANSPORT_H_
