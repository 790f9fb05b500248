// The transport's chunk layer (dist/transport.h SendMessage/RecvMessage):
// round trips at tiny frame limits, the runtime TransportOptions knob, and
// — most importantly — every reassembly failure path. A corrupt or
// malicious chunk stream must always surface a Status: truncation
// mid-chunk, duplicate/out-of-order indices, chunk-count overflow,
// zero-length chunks and checksum mismatches are each rejected, and the
// oversized-total guard fires BEFORE any allocation.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/fnv.h"
#include "dist/transport.h"

namespace spinner {
namespace {

using dist::Frame;
using dist::TransportOptions;
using dist::WireCounters;

/// Mirror of the chunk envelope layout (docs/WIRE_FORMAT.md):
///   message_id u64 | inner_type u32 | chunk_index u32 | chunk_count u32 |
///   total_size u64 | checksum u64
struct TestEnvelope {
  uint64_t message_id = 7;
  uint32_t inner_type = 5;
  uint32_t chunk_index = 0;
  uint32_t chunk_count = 2;
  uint64_t total_size = 0;
  uint64_t checksum = 0;
};

constexpr size_t kEnvelopeSize = 36;

std::vector<uint8_t> ChunkFramePayload(const TestEnvelope& env,
                                       std::span<const uint8_t> bytes) {
  std::vector<uint8_t> payload(kEnvelopeSize + bytes.size());
  std::memcpy(payload.data(), &env.message_id, 8);
  std::memcpy(payload.data() + 8, &env.inner_type, 4);
  std::memcpy(payload.data() + 12, &env.chunk_index, 4);
  std::memcpy(payload.data() + 16, &env.chunk_count, 4);
  std::memcpy(payload.data() + 20, &env.total_size, 8);
  std::memcpy(payload.data() + 28, &env.checksum, 8);
  if (!bytes.empty()) {
    std::memcpy(payload.data() + kEnvelopeSize, bytes.data(), bytes.size());
  }
  return payload;
}

std::vector<uint8_t> Pattern(size_t size) {
  std::vector<uint8_t> bytes(size);
  std::iota(bytes.begin(), bytes.end(), uint8_t{1});
  return bytes;
}

TransportOptions TinyFrames(uint64_t max_frame_payload = 128) {
  TransportOptions options;
  options.max_frame_payload = max_frame_payload;
  return options;
}

TEST(TransportChunkTest, SmallMessagesTravelAsPlainFrames) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  const std::vector<uint8_t> payload = Pattern(100);
  WireCounters sent, received;
  ASSERT_TRUE(dist::SendMessage(pair->first.fd(), 9, payload, options,
                                /*message_id=*/1, &sent)
                  .ok());
  auto frame = dist::RecvMessage(pair->second.fd(), options, &received);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, 9u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(sent.frames_sent, 1);
  EXPECT_EQ(sent.chunked_messages_sent, 0);
  EXPECT_EQ(received.chunked_messages_received, 0);
  EXPECT_EQ(sent.bytes_sent, received.bytes_received);
}

TEST(TransportChunkTest, LargeMessagesRoundTripAcrossManyChunks) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames(64);
  // 5000 bytes at a 64-byte frame limit: hundreds of chunks — more than a
  // socket buffer holds at per-frame skb accounting, so the send runs on
  // its own thread like a real peer.
  const std::vector<uint8_t> payload = Pattern(5000);
  WireCounters sent, received;
  Status send_status;
  std::thread sender([&] {
    send_status = dist::SendMessage(pair->first.fd(), 3, payload, options,
                                    /*message_id=*/42, &sent);
  });
  auto frame = dist::RecvMessage(pair->second.fd(), options, &received);
  sender.join();
  ASSERT_TRUE(send_status.ok()) << send_status;
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, 3u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_GT(sent.frames_sent, 100);
  EXPECT_EQ(sent.chunked_messages_sent, 1);
  EXPECT_EQ(received.chunked_messages_received, 1);
  EXPECT_EQ(received.frames_received, sent.frames_sent);
  // Every frame is within the forced limit (header adds 16 bytes).
  EXPECT_LE(sent.bytes_sent,
            sent.frames_sent * static_cast<int64_t>(64 + 16));
}

TEST(TransportChunkTest, EmptyAndExactBoundaryPayloads) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  // Empty message.
  ASSERT_TRUE(
      dist::SendMessage(pair->first.fd(), 1, {}, options, 1).ok());
  auto empty = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->payload.empty());
  // Exactly the frame limit: still one plain frame.
  const std::vector<uint8_t> boundary = Pattern(128);
  ASSERT_TRUE(
      dist::SendMessage(pair->first.fd(), 1, boundary, options, 2).ok());
  auto fits = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->payload, boundary);
  // One byte past: chunked.
  const std::vector<uint8_t> over = Pattern(129);
  WireCounters counters;
  ASSERT_TRUE(dist::SendMessage(pair->first.fd(), 1, over, options, 3,
                                &counters)
                  .ok());
  EXPECT_EQ(counters.chunked_messages_sent, 1);
  auto chunked = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(chunked->payload, over);
}

TEST(TransportChunkTest, TruncatedMidChunkIsAnIOError) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  const std::vector<uint8_t> payload = Pattern(60);
  TestEnvelope env;
  env.total_size = 100;
  env.checksum = ChecksumBytes(payload);
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, payload), options)
                  .ok());
  pair->first.Close();  // peer dies before chunk 1 — never a hang
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(TransportChunkTest, DuplicateAndOutOfOrderChunksAreRejected) {
  for (const uint32_t second_index : {0u, 2u}) {  // duplicate; skipped
    auto pair = dist::CreateSocketPair();
    ASSERT_TRUE(pair.ok());
    const TransportOptions options = TinyFrames();
    const std::vector<uint8_t> half = Pattern(50);
    TestEnvelope env;
    env.chunk_count = 3;
    env.total_size = 150;
    env.checksum = 1234;
    ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                                ChunkFramePayload(env, half), options)
                    .ok());
    env.chunk_index = second_index;
    ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                                ChunkFramePayload(env, half), options)
                    .ok());
    auto result = dist::RecvMessage(pair->second.fd(), options);
    ASSERT_FALSE(result.ok()) << "second_index=" << second_index;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("duplicate or out-of-order"),
              std::string::npos)
        << result.status();
  }
}

TEST(TransportChunkTest, FirstChunkMustBeIndexZero) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  TestEnvelope env;
  env.chunk_index = 1;
  env.total_size = 100;
  const std::vector<uint8_t> bytes = Pattern(50);
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, bytes), options)
                  .ok());
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransportChunkTest, ChunkCountOverflowIsRejectedBeforeAllocation) {
  // count = 0, count exceeding the total byte count, a total above
  // max_message_size, and a total larger than the announced chunks can
  // carry at the frame limit must all fail before the message buffer
  // exists.
  struct Case {
    uint32_t chunk_count;
    uint64_t total_size;
  };
  const TransportOptions options = TinyFrames();
  for (const Case c : {Case{0, 100}, Case{200, 100},
                       Case{2, dist::kMaxMessageSize + 1},
                       Case{2, 10000}}) {
    auto pair = dist::CreateSocketPair();
    ASSERT_TRUE(pair.ok());
    TestEnvelope env;
    env.chunk_count = c.chunk_count;
    env.total_size = c.total_size;
    const std::vector<uint8_t> bytes = Pattern(50);
    ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                                ChunkFramePayload(env, bytes), options)
                    .ok());
    auto result = dist::RecvMessage(pair->second.fd(), options);
    ASSERT_FALSE(result.ok())
        << "count=" << c.chunk_count << " total=" << c.total_size;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TransportChunkTest, OversizedTotalRespectsConfiguredMessageLimit) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  TransportOptions options = TinyFrames();
  options.max_message_size = 1000;
  TestEnvelope env;
  env.total_size = 1001;
  env.chunk_count = 11;
  const std::vector<uint8_t> bytes = Pattern(92);
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, bytes), options)
                  .ok());
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("limit"), std::string::npos);
}

TEST(TransportChunkTest, ZeroLengthChunksAreRejected) {
  // First chunk empty, and a later chunk empty after the payload is
  // already complete (a chunk-count lie) — both must fail.
  for (const bool empty_first : {true, false}) {
    auto pair = dist::CreateSocketPair();
    ASSERT_TRUE(pair.ok());
    const TransportOptions options = TinyFrames();
    const std::vector<uint8_t> full = Pattern(80);
    TestEnvelope env;
    env.total_size = 80;
    env.checksum = ChecksumBytes(full);
    if (empty_first) {
      ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                                  ChunkFramePayload(env, {}), options)
                      .ok());
    } else {
      ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                                  ChunkFramePayload(env, full), options)
                      .ok());
      env.chunk_index = 1;
      ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                                  ChunkFramePayload(env, {}), options)
                      .ok());
    }
    auto result = dist::RecvMessage(pair->second.fd(), options);
    ASSERT_FALSE(result.ok()) << "empty_first=" << empty_first;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("zero-length"),
              std::string::npos)
        << result.status();
  }
}

TEST(TransportChunkTest, OversizedChunkIsRejected) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  const std::vector<uint8_t> big = Pattern(80);
  TestEnvelope env;
  env.chunk_count = 2;
  env.total_size = 100;  // chunk 1's 80 bytes exceed the 20 remaining
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, big), options)
                  .ok());
  env.chunk_index = 1;
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, big), options)
                  .ok());
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("oversized chunk"),
            std::string::npos)
      << result.status();
}

TEST(TransportChunkTest, ChecksumMismatchIsRejected) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  const std::vector<uint8_t> a = Pattern(60);
  const std::vector<uint8_t> b = Pattern(40);
  TestEnvelope env;
  env.total_size = 100;
  env.checksum = 0xdeadbeef;  // not the FNV-1a of a||b
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, a), options)
                  .ok());
  env.chunk_index = 1;
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, b), options)
                  .ok());
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status();
}

TEST(TransportChunkTest, EnvelopeDriftMidMessageIsRejected) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  const std::vector<uint8_t> half = Pattern(50);
  TestEnvelope env;
  env.total_size = 100;
  env.checksum = 99;
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, half), options)
                  .ok());
  env.chunk_index = 1;
  env.message_id = 8;  // a different message's chunk interleaved
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, half), options)
                  .ok());
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransportChunkTest, MissingChunkSurfacesWhenAnotherFrameArrives) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const TransportOptions options = TinyFrames();
  const std::vector<uint8_t> half = Pattern(50);
  TestEnvelope env;
  env.total_size = 100;
  env.checksum = 99;
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), dist::kChunkFrameType,
                              ChunkFramePayload(env, half), options)
                  .ok());
  // The sender "forgets" chunk 1 and moves on to a plain frame.
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), 5, half, options).ok());
  auto result = dist::RecvMessage(pair->second.fd(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("missing chunks"),
            std::string::npos)
      << result.status();
}

TEST(TransportChunkTest, ReservedChunkTypeCannotBeSentAsAMessage) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const std::vector<uint8_t> payload = Pattern(10);
  EXPECT_FALSE(dist::SendMessage(pair->first.fd(), dist::kChunkFrameType,
                                 payload, TinyFrames(), 1)
                   .ok());
}

TEST(TransportOptionsTest, EnvOverrideAndExplicitResolution) {
  ASSERT_EQ(::setenv("SPINNER_WIRE_MAX_PAYLOAD", "8192", 1), 0);
  EXPECT_EQ(TransportOptions::FromEnv().max_frame_payload, 8192u);
  // An explicit override (config/session knob) wins over the env.
  EXPECT_EQ(TransportOptions::Resolve(4096).max_frame_payload, 4096u);
  EXPECT_EQ(TransportOptions::Resolve(0).max_frame_payload, 8192u);
  // Values are clamped into [kMinFramePayload, kMaxFramePayload].
  EXPECT_EQ(TransportOptions::Resolve(1).max_frame_payload,
            dist::kMinFramePayload);
  ASSERT_EQ(::setenv("SPINNER_WIRE_MAX_PAYLOAD", "1", 1), 0);
  EXPECT_EQ(TransportOptions::FromEnv().max_frame_payload,
            dist::kMinFramePayload);
  ASSERT_EQ(::setenv("SPINNER_WIRE_MAX_PAYLOAD", "not-a-number", 1), 0);
  EXPECT_EQ(TransportOptions::FromEnv().max_frame_payload,
            dist::kMaxFramePayload);
  ASSERT_EQ(::unsetenv("SPINNER_WIRE_MAX_PAYLOAD"), 0);
  EXPECT_EQ(TransportOptions::FromEnv().max_frame_payload,
            dist::kMaxFramePayload);
}

}  // namespace
}  // namespace spinner
