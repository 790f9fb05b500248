// The cross-process execution mode (src/dist): wire-format round trips and
// failure paths (truncated/oversized frames rejected, worker crash
// surfaces a Status, never a hang), and the central guarantee — for a
// fixed seed, RunMultiProcessSpinner is bit-identical to the in-process
// substrate (assignments AND float φ/ρ/score histories) for every tested
// {num_shards, num_workers} combination.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "dist/shard_store.h"
#include "dist/transport.h"
#include "dist/wire_format.h"
#include "dist/worker.h"
#include "graph/binary_io.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "spinner/partitioner.h"
#include "spinner/sharded_program.h"

namespace spinner {
namespace {

using dist::Frame;
using dist::MessageType;
using dist::MultiProcessOptions;

CsrGraph SmallWorldConverted(int64_t n, uint64_t seed = 11) {
  auto ws = WattsStrogatz(n, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

/// An undirected power-law graph: hubs at low ids make cost-balanced
/// shard cuts very uneven in vertex count.
CsrGraph PowerLawConverted(int64_t n, uint64_t seed = 5) {
  auto ba = BarabasiAlbert(n, 4, 4, seed);
  SPINNER_CHECK(ba.ok());
  auto converted = BuildSymmetric(ba->num_vertices, ba->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

// --- Wire format ---------------------------------------------------------

TEST(WireFormatTest, ShardSliceRoundTripsThroughBinaryIo) {
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  for (int s = 0; s < store->num_shards(); ++s) {
    std::vector<uint8_t> bytes;
    graph_io::AppendShardSlice(store->shard(s), &bytes);
    size_t consumed = 0;
    auto decoded = graph_io::DecodeShardSlice(bytes, &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded->begin, store->shard(s).begin);
    EXPECT_EQ(decoded->end, store->shard(s).end);
    EXPECT_EQ(decoded->offsets, store->shard(s).offsets);
    EXPECT_EQ(decoded->targets, store->shard(s).targets);
    EXPECT_EQ(decoded->weights, store->shard(s).weights);
    EXPECT_EQ(decoded->weighted_degree, store->shard(s).weighted_degree);
  }
}

TEST(WireFormatTest, ShardSliceRejectsTruncationAndBadMagic) {
  const CsrGraph g = SmallWorldConverted(400);
  auto store = ShardedGraphStore::Build(g, 1);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> bytes;
  graph_io::AppendShardSlice(store->shard(0), &bytes);

  // Every proper prefix fails cleanly (spot-check a spread of cut points).
  for (const size_t cut : {size_t{0}, size_t{3}, size_t{9}, size_t{25},
                           bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    size_t consumed = 0;
    EXPECT_FALSE(graph_io::DecodeShardSlice(truncated, &consumed).ok())
        << "cut=" << cut;
  }
  std::vector<uint8_t> corrupt = bytes;
  corrupt[0] = 'X';
  size_t consumed = 0;
  auto decoded = graph_io::DecodeShardSlice(corrupt, &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, ShardSliceRejectsZeroWeight) {
  const CsrGraph g = SmallWorldConverted(400);
  auto store = ShardedGraphStore::Build(g, 1);
  ASSERT_TRUE(store.ok());
  ShardedGraphStore::Shard shard = store->shard(0);
  ASSERT_FALSE(shard.weights.empty());
  shard.weights[shard.weights.size() / 2] = 0;
  std::vector<uint8_t> bytes;
  graph_io::AppendShardSlice(shard, &bytes);
  size_t consumed = 0;
  auto decoded = graph_io::DecodeShardSlice(bytes, &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, SetupMessageRoundTrips) {
  const CsrGraph g = SmallWorldConverted(700);
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage setup;
  setup.owned_shards = {1, 2};
  setup.shards = {store->shard(1), store->shard(2)};

  auto decoded = dist::SetupMessage::Decode(setup.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->owned_shards, setup.owned_shards);
  ASSERT_EQ(decoded->shards.size(), 2u);
  EXPECT_EQ(decoded->shards[0].targets, store->shard(1).targets);
  EXPECT_EQ(decoded->shards[1].offsets, store->shard(2).offsets);
}

TEST(WireFormatTest, SetupRejectsBytesAfterTheLastSlice) {
  const CsrGraph g = SmallWorldConverted(700);
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage setup;
  setup.owned_shards = {1};
  setup.shards = {store->shard(1)};
  std::vector<uint8_t> payload = setup.Encode();
  ASSERT_TRUE(dist::SetupMessage::Decode(payload).ok());
  // A whole second slice the id list does not announce, then one byte.
  graph_io::AppendShardSlice(store->shard(2), &payload);
  auto extra_slice = dist::SetupMessage::Decode(payload);
  ASSERT_FALSE(extra_slice.ok());
  EXPECT_EQ(extra_slice.status().code(), StatusCode::kInvalidArgument);
  payload = setup.Encode();
  payload.push_back(0);
  auto extra_byte = dist::SetupMessage::Decode(payload);
  ASSERT_FALSE(extra_byte.ok());
  EXPECT_EQ(extra_byte.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, RunMessagesRoundTrip) {
  dist::ScoresRequest scores;
  scores.superstep = 17;
  scores.global_loads = {5, 6, 7};
  scores.capacities = {1.5, 2.5, 3.5};
  auto scores2 = dist::ScoresRequest::Decode(scores.Encode());
  ASSERT_TRUE(scores2.ok());
  EXPECT_EQ(scores2->superstep, 17);
  EXPECT_EQ(scores2->global_loads, scores.global_loads);
  EXPECT_EQ(scores2->capacities, scores.capacities);

  dist::ScoresReply scores_reply;
  scores_reply.block_score = {0.25, 0.5};
  scores_reply.local_weight = 9;
  scores_reply.migration_counts = {1, 0, 2};
  scores_reply.compute_ns = 123456789;
  auto scores_reply2 = dist::ScoresReply::Decode(scores_reply.Encode());
  ASSERT_TRUE(scores_reply2.ok());
  EXPECT_EQ(scores_reply2->block_score, scores_reply.block_score);
  EXPECT_EQ(scores_reply2->migration_counts, scores_reply.migration_counts);
  EXPECT_EQ(scores_reply2->compute_ns, 123456789);

  dist::MigrateReply reply;
  reply.compute_ns = 42;
  dist::ShardMigrateResult r;
  r.shard = 3;
  r.moves = {{10, 1}, {12, 0}};
  r.loads = {4, 4};
  r.migrated = 2;
  r.messages = 11;
  reply.shards.push_back(r);
  auto reply2 = dist::MigrateReply::Decode(reply.Encode());
  ASSERT_TRUE(reply2.ok());
  ASSERT_EQ(reply2->shards.size(), 1u);
  EXPECT_EQ(reply2->shards[0].moves, r.moves);
  EXPECT_EQ(reply2->shards[0].loads, r.loads);
  EXPECT_EQ(reply2->shards[0].migrated, 2);
  EXPECT_EQ(reply2->compute_ns, 42);

  dist::ErrorMessage error =
      dist::ErrorMessage::FromStatus(Status::InvalidArgument("boom"));
  auto error2 = dist::ErrorMessage::Decode(error.Encode());
  ASSERT_TRUE(error2.ok());
  EXPECT_EQ(error2->ToStatus(),
            Status::InvalidArgument("boom"));
}

TEST(WireFormatTest, DecodersRejectTruncatedPayloads) {
  dist::ScoresRequest scores;
  scores.superstep = 1;
  scores.global_loads = {1, 2, 3, 4};
  scores.capacities = {0.5};
  const std::vector<uint8_t> bytes = scores.Encode();
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(dist::ScoresRequest::Decode(truncated).ok())
        << "cut=" << cut;
  }
  // A vector count pointing past the payload must be rejected before any
  // allocation (no OOM on corrupt counts).
  std::vector<uint8_t> corrupt = bytes;
  corrupt[8] = 0xff;  // global_loads count low byte
  corrupt[9] = 0xff;
  EXPECT_FALSE(dist::ScoresRequest::Decode(corrupt).ok());
}

TEST(WireFormatTest, ChecksumDetectsLabelDivergence) {
  std::vector<PartitionId> a = {0, 1, 2, 3, 4};
  std::vector<PartitionId> b = a;
  EXPECT_EQ(dist::ChecksumLabels(a), dist::ChecksumLabels(b));
  b[3] = 0;
  EXPECT_NE(dist::ChecksumLabels(a), dist::ChecksumLabels(b));
}

/// 64 labels in [0, 32) with no two neighbours equal.
std::vector<PartitionId> DigestLabels() {
  std::vector<PartitionId> labels(64);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<PartitionId>((i * 7 + 3) % 32);
  }
  return labels;
}

TEST(WireFormatTest, ChecksumDetectsEverySingleLabelChange) {
  const std::vector<PartitionId> labels = DigestLabels();
  const uint64_t digest = dist::ChecksumLabels(labels);
  for (size_t i = 0; i < labels.size(); ++i) {
    for (PartitionId value = kNoPartition; value < 32; ++value) {
      if (value == labels[i]) continue;
      std::vector<PartitionId> changed = labels;
      changed[i] = value;
      EXPECT_NE(dist::ChecksumLabels(changed), digest)
          << "position " << i << " value " << value;
    }
  }
}

TEST(WireFormatTest, ChecksumDetectsAdjacentSwaps) {
  const std::vector<PartitionId> labels = DigestLabels();
  const uint64_t digest = dist::ChecksumLabels(labels);
  for (size_t i = 0; i + 1 < labels.size(); ++i) {
    ASSERT_NE(labels[i], labels[i + 1]);
    std::vector<PartitionId> swapped = labels;
    std::swap(swapped[i], swapped[i + 1]);
    EXPECT_NE(dist::ChecksumLabels(swapped), digest) << "position " << i;
  }
}

TEST(WireFormatTest, ChecksumIsIndependentOfHowTheSequenceIsSplit) {
  const std::vector<PartitionId> labels = DigestLabels();
  const std::span<const PartitionId> all(labels);
  for (size_t length = 0; length <= labels.size(); ++length) {
    dist::LabelChecksum one_at_a_time;
    for (size_t i = 0; i < length; ++i) one_at_a_time.UpdateOne(labels[i]);
    const uint64_t expected = one_at_a_time.digest();
    EXPECT_EQ(dist::ChecksumLabels(all.first(length)), expected) << length;
    for (size_t split = 0; split <= length; ++split) {
      dist::LabelChecksum spans;
      spans.Update(all.first(split));
      spans.Update(all.subspan(split, length - split));
      EXPECT_EQ(spans.digest(), expected)
          << "length " << length << " split " << split;
      // A span after a partial stripe of single labels, too.
      dist::LabelChecksum mixed;
      for (size_t i = 0; i < split; ++i) mixed.UpdateOne(labels[i]);
      mixed.Update(all.subspan(split, length - split));
      EXPECT_EQ(mixed.digest(), expected)
          << "length " << length << " split " << split;
    }
  }
  // Appending a label changes the digest, even a zero one.
  std::vector<PartitionId> longer = labels;
  longer.push_back(0);
  EXPECT_NE(dist::ChecksumLabels(longer), dist::ChecksumLabels(labels));
}

// --- Transport -----------------------------------------------------------

TEST(TransportTest, FramesRoundTripOverSocketPair) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 251};
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(),
                              static_cast<uint32_t>(MessageType::kLabels),
                              payload)
                  .ok());
  auto frame = dist::RecvFrame(pair->second.fd());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, static_cast<uint32_t>(MessageType::kLabels));
  EXPECT_EQ(frame->payload, payload);

  // Empty payloads are legal (Teardown, Snapshot).
  ASSERT_TRUE(dist::SendFrame(pair->first.fd(), 7, {}).ok());
  auto empty = dist::RecvFrame(pair->second.fd());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->payload.empty());
}

TEST(TransportTest, TruncatedFrameAndClosedPeerAreIOErrors) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  // A partial header followed by close: the reader must not hang and must
  // report a truncation, not garbage.
  const uint8_t partial[6] = {0x53, 0x50, 0x4d, 0x46, 1, 0};
  ASSERT_EQ(::send(pair->first.fd(), partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  pair->first.Close();
  auto frame = dist::RecvFrame(pair->second.fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);

  // Clean close with no bytes at all: "peer closed".
  auto pair2 = dist::CreateSocketPair();
  ASSERT_TRUE(pair2.ok());
  pair2->first.Close();
  auto eof = dist::RecvFrame(pair2->second.fd());
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kIOError);
}

TEST(TransportTest, OversizedAndBadMagicFramesAreRejected) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  // Header announcing a payload over the hard limit.
  uint8_t header[16] = {0};
  const uint32_t magic = dist::kFrameMagic;
  const uint32_t type = 5;
  const uint64_t huge = dist::kMaxFramePayload + 1;
  memcpy(header, &magic, 4);
  memcpy(header + 4, &type, 4);
  memcpy(header + 8, &huge, 8);
  ASSERT_EQ(::send(pair->first.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  auto oversized = dist::RecvFrame(pair->second.fd());
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);

  auto pair2 = dist::CreateSocketPair();
  ASSERT_TRUE(pair2.ok());
  uint8_t bad[16] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_EQ(::send(pair2->first.fd(), bad, sizeof(bad), 0),
            static_cast<ssize_t>(sizeof(bad)));
  auto desync = dist::RecvFrame(pair2->second.fd());
  ASSERT_FALSE(desync.ok());
  EXPECT_EQ(desync.status().code(), StatusCode::kInvalidArgument);
}

// --- Worker protocol ------------------------------------------------------

/// What a hand-driven worker answered: its Resume fingerprints, its last
/// reply (to the Setup, or to the last run message), and the loop's exit
/// code.
struct SetupOutcome {
  std::vector<uint64_t> resume;
  Frame reply;
  int exit_code = -1;
};

/// A run message DriveSetup sends once the worker subscribed, and whether
/// the worker answers it when it accepts it (Labels is one-way).
struct RunMessage {
  MessageType type;
  std::vector<uint8_t> payload;
  bool answered = true;
};

/// Drives one worker loop by hand over a socketpair: Hello, Assign of
/// `assigned` (a 4-way run over `store`), Resume, then `setup`. If the
/// worker subscribes, `then` follows in order: every answer but the last
/// must not be an Error, and the last answer is recorded.
void DriveSetup(const ShardedGraphStore& store, std::vector<int32_t> assigned,
                const dist::SetupMessage& setup,
                const dist::WorkerLoopOptions& loop, SetupOutcome* out,
                const std::vector<RunMessage>& then = {}) {
  auto pair = dist::CreateSocketPair();
  ASSERT_TRUE(pair.ok());
  const dist::TransportOptions options;
  std::thread worker([&] {
    out->exit_code =
        dist::RunShardWorkerLoop(pair->second.fd(), options, loop);
  });
  // Assertions return from the lambda; closing our end then releases a
  // worker still waiting for a frame, so the join never hangs.
  const auto drive = [&] {
    const int fd = pair->first.fd();
    auto hello = dist::RecvMessage(fd, options);
    ASSERT_TRUE(hello.ok()) << hello.status();
    EXPECT_EQ(hello->type, static_cast<uint32_t>(MessageType::kHello));

    dist::AssignMessage assign;
    assign.num_partitions = 4;
    assign.num_vertices = store.NumVertices();
    assign.num_shards_total = store.num_shards();
    assign.owned_shards = std::move(assigned);
    ASSERT_TRUE(
        dist::SendMessage(fd, static_cast<uint32_t>(MessageType::kAssign),
                          assign.Encode(), options, 1)
            .ok());
    auto resume = dist::RecvMessage(fd, options);
    ASSERT_TRUE(resume.ok()) << resume.status();
    ASSERT_EQ(resume->type, static_cast<uint32_t>(MessageType::kResume));
    auto decoded = dist::ResumeMessage::Decode(resume->payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    out->resume = decoded->fingerprints;

    ASSERT_TRUE(
        dist::SendMessage(fd, static_cast<uint32_t>(MessageType::kSetup),
                          setup.Encode(), options, 2)
            .ok());
    auto reply = dist::RecvMessage(fd, options);
    ASSERT_TRUE(reply.ok()) << reply.status();
    out->reply = std::move(reply).value();
    if (out->reply.type != static_cast<uint32_t>(MessageType::kSubscribe)) {
      return;
    }
    uint64_t id = 3;
    for (size_t i = 0; i < then.size(); ++i) {
      ASSERT_TRUE(dist::SendMessage(fd, static_cast<uint32_t>(then[i].type),
                                    then[i].payload, options, id++)
                      .ok());
      if (!then[i].answered) continue;
      auto answer = dist::RecvMessage(fd, options);
      ASSERT_TRUE(answer.ok()) << answer.status();
      out->reply = std::move(answer).value();
      if (i + 1 < then.size()) {
        ASSERT_NE(out->reply.type, static_cast<uint32_t>(MessageType::kError))
            << "run message " << i;
      }
    }
  };
  drive();
  pair->first.Close();
  worker.join();
}

/// Asserts that `outcome` is an Error frame with `code` naming `needle`,
/// after which the worker exited 1.
void ExpectSetupRejected(const SetupOutcome& outcome, const std::string& needle,
                         StatusCode code = StatusCode::kInvalidArgument) {
  ASSERT_EQ(outcome.reply.type, static_cast<uint32_t>(MessageType::kError));
  auto error = dist::ErrorMessage::Decode(outcome.reply.payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, static_cast<int32_t>(code));
  EXPECT_NE(error->message.find(needle), std::string::npos)
      << error->message;
  EXPECT_EQ(outcome.exit_code, 1);
}

TEST(ShardWorkerTest, SetupListingAShardTwiceIsRejected) {
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage setup;
  setup.owned_shards = {0, 0};
  setup.shards = {store->shard(0), store->shard(0)};
  SetupOutcome outcome;
  DriveSetup(*store, {0}, setup, {}, &outcome);
  ExpectSetupRejected(outcome, "twice");
}

TEST(ShardWorkerTest, SetupOmittingAShardTheWorkerDidNotReportIsRejected) {
  // Assign carries no fingerprints, so the worker's own Resume is what
  // licenses an omission: a shard it reported absent (fingerprint 0) must
  // arrive in Setup.
  const CsrGraph g = SmallWorldConverted(900);
  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage only_first;
  only_first.owned_shards = {0};
  only_first.shards = {store->shard(0)};

  // An in-memory worker reports nothing, so it must be sent everything.
  SetupOutcome in_memory;
  DriveSetup(*store, {0, 1}, only_first, {}, &in_memory);
  EXPECT_EQ(in_memory.resume, (std::vector<uint64_t>{0, 0}));
  ExpectSetupRejected(in_memory, "omitted shard 1");

  // A store holding shard 1 but not shard 2 may skip 1, never 2.
  const std::string dir = testing::TempDir() + "/omitted_shard_store";
  std::filesystem::remove_all(dir);
  std::vector<uint8_t> slice;
  graph_io::AppendShardSlice(store->shard(1), &slice);
  ASSERT_TRUE(dist::PersistentShardStore(dir).Put(1, slice).ok());
  dist::WorkerLoopOptions loop;
  loop.store_dir = dir;
  SetupOutcome warm;
  DriveSetup(*store, {1, 2}, dist::SetupMessage{}, loop, &warm);
  EXPECT_EQ(warm.resume,
            (std::vector<uint64_t>{dist::ShardSliceFingerprint(slice), 0}));
  ExpectSetupRejected(warm, "omitted shard 2");
}

/// The Init, Labels and Snapshot run messages for a worker owning shard 0
/// of `store`: Init fixes vertex 1's label to `initial`, Labels sends 0
/// for every subscribed vertex but the last, which gets `last_mirror`.
struct ShardZeroRun {
  RunMessage init;
  RunMessage labels;
  RunMessage snapshot;
  RunMessage scores;
  RunMessage migrate;
  size_t subscribed = 0;
};
ShardZeroRun MakeShardZeroRun(const ShardedGraphStore& store,
                              PartitionId initial, PartitionId last_mirror) {
  ShardZeroRun run;
  ShardedGraphStore::Shard slice = store.shard(0);
  auto layout = dist::RemapToWorkerLayout(
      std::span<ShardedGraphStore::Shard>(&slice, 1), store.NumVertices());
  SPINNER_CHECK(layout.ok()) << layout.status();
  run.subscribed = layout->subscription.size();
  dist::InitRequest init;
  init.base = layout->owned_begin;
  init.initial_labels.assign(static_cast<size_t>(layout->owned_count()),
                             kNoPartition);
  init.initial_labels[1] = initial;
  run.init = {MessageType::kInit, init.Encode()};
  dist::LabelValues labels;
  labels.values.assign(run.subscribed, 0);
  if (!labels.values.empty()) labels.values.back() = last_mirror;
  run.labels = {MessageType::kLabels, labels.Encode(), /*answered=*/false};
  run.snapshot = {MessageType::kSnapshot, {}};
  dist::ScoresRequest scores;
  scores.superstep = 1;
  scores.global_loads.assign(4, 0);
  scores.capacities.assign(4, 1.0);
  run.scores = {MessageType::kScores, scores.Encode()};
  dist::MigrateRequest migrate;
  migrate.superstep = 2;
  migrate.global_loads.assign(4, 0);
  migrate.capacities.assign(4, 1.0);
  migrate.migration_counts.assign(4, 0);
  run.migrate = {MessageType::kMigrate, migrate.Encode()};
  return run;
}

TEST(ShardWorkerTest, InitLabelOutsideTheRangeIsRejected) {
  // The worker's k is 4 (DriveSetup's Assign): an initial label must be
  // kNoPartition or in [0, 4), or it would index the load table out of
  // bounds.
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage setup;
  setup.owned_shards = {0};
  setup.shards = {store->shard(0)};
  for (const PartitionId bad : {4, 256, -2}) {
    const ShardZeroRun run = MakeShardZeroRun(*store, bad, 0);
    SetupOutcome outcome;
    DriveSetup(*store, {0}, setup, {}, &outcome, {run.init});
    ExpectSetupRejected(outcome, "Init: initial label");
  }
  // The largest label and a hash draw are accepted.
  const ShardZeroRun run = MakeShardZeroRun(*store, 3, 3);
  SetupOutcome outcome;
  DriveSetup(*store, {0}, setup, {}, &outcome, {run.init});
  EXPECT_EQ(outcome.reply.type, static_cast<uint32_t>(MessageType::kInitReply));
}

TEST(ShardWorkerTest, MirrorLabelOutsideTheRangeIsRejected) {
  // A mirror label must lie in [0, k): the gather indexes per-label tables
  // with it, and a value >= 256 would also alias a valid label in the
  // one-byte view.
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage setup;
  setup.owned_shards = {0};
  setup.shards = {store->shard(0)};
  for (const PartitionId bad : {4, 256, kNoPartition}) {
    const ShardZeroRun run = MakeShardZeroRun(*store, kNoPartition, bad);
    ASSERT_GT(run.subscribed, 0u);
    // Labels is one-way: the Snapshot after it makes a worker that wrongly
    // accepted the labels answer instead of leaving the harness waiting.
    SetupOutcome outcome;
    DriveSetup(*store, {0}, setup, {}, &outcome,
               {run.init, run.labels, run.snapshot});
    ExpectSetupRejected(outcome, "Labels: mirror label");
  }
  // In-range mirrors are accepted: the next request is answered.
  const ShardZeroRun run = MakeShardZeroRun(*store, kNoPartition, 3);
  SetupOutcome outcome;
  DriveSetup(*store, {0}, setup, {}, &outcome,
             {run.init, run.labels, run.snapshot});
  EXPECT_EQ(outcome.reply.type,
            static_cast<uint32_t>(MessageType::kSnapshotReply));
  // No Error: the worker exits only when the harness hangs up mid-run.
  EXPECT_EQ(outcome.exit_code, 2);
}

TEST(ShardWorkerTest, RunMessagesBeforeInitAndLabelsAreRejected) {
  // Until Init and Labels fill them, every label slot holds kNoPartition:
  // a Scores or Migrate gather would index the per-label tables at -1, and
  // an ApplyDeltas checksum would fold labels no Init produced.
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  dist::SetupMessage setup;
  setup.owned_shards = {0};
  setup.shards = {store->shard(0)};
  const ShardZeroRun run = MakeShardZeroRun(*store, kNoPartition, 3);
  const RunMessage deltas = {MessageType::kApplyDeltas,
                             dist::ApplyDeltasMessage{}.Encode()};
  for (const std::vector<RunMessage>& then :
       std::vector<std::vector<RunMessage>>{{run.scores},
                                            {run.migrate},
                                            {deltas},
                                            {run.init, run.scores}}) {
    SetupOutcome outcome;
    DriveSetup(*store, {0}, setup, {}, &outcome, then);
    ExpectSetupRejected(outcome, "before Init and Labels",
                        StatusCode::kFailedPrecondition);
  }
  // In protocol order the same Scores is answered.
  SetupOutcome outcome;
  DriveSetup(*store, {0}, setup, {}, &outcome,
             {run.init, run.labels, run.scores});
  EXPECT_EQ(outcome.reply.type,
            static_cast<uint32_t>(MessageType::kScoresReply));
}

// --- Multi-process execution ---------------------------------------------

/// One in-process reference run over a fresh store.
Result<ShardedRunResult> ReferenceRun(const SpinnerConfig& config,
                                      const CsrGraph& g, int num_shards,
                                      std::vector<PartitionId>* labels) {
  auto store = ShardedGraphStore::Build(g, num_shards);
  if (!store.ok()) return store.status();
  ThreadPool pool(2);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = RunShardedSpinner(config, &*store, no_labels, &pool, nullptr);
  if (run.ok()) *labels = store->labels();
  return run;
}

TEST(MultiProcessSpinnerTest, BitIdenticalToInProcessAcrossShapes) {
  const CsrGraph g = SmallWorldConverted(1100, 21);
  SpinnerConfig config;
  config.seed = 7;
  config.max_iterations = 10;
  config.use_halting = false;

  // k = 256 is the widest one-byte label view and 257 the smallest k
  // scored on the PartitionId array: both sides of the cutover and a small
  // k must match in-process.
  for (const int k : {6, 256, 257}) {
    config.num_partitions = k;
    for (const int num_shards : {1, 2, 7}) {
      std::vector<PartitionId> reference_labels;
      auto reference =
          ReferenceRun(config, g, num_shards, &reference_labels);
      ASSERT_TRUE(reference.ok());
      for (const int num_workers : {1, 3}) {
        const std::string shape = "k=" + std::to_string(k) +
                                  " S=" + std::to_string(num_shards) +
                                  " W=" + std::to_string(num_workers);
        auto store = ShardedGraphStore::Build(g, num_shards);
        ASSERT_TRUE(store.ok());
        MultiProcessOptions options;
        options.num_workers = num_workers;
        std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
        auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                                options, nullptr);
        ASSERT_TRUE(run.ok()) << shape << ": " << run.status();
        EXPECT_EQ(store->labels(), reference_labels) << shape;
        EXPECT_EQ(run->iterations, reference->iterations) << shape;
        EXPECT_EQ(run->converged, reference->converged) << shape;
        // The float convergence curves must match bit-for-bit too.
        ASSERT_EQ(run->history.size(), reference->history.size()) << shape;
        for (size_t i = 0; i < run->history.size(); ++i) {
          EXPECT_EQ(run->history[i].score, reference->history[i].score)
              << shape << " " << i;
          EXPECT_EQ(run->history[i].phi, reference->history[i].phi)
              << shape << " " << i;
          EXPECT_EQ(run->history[i].rho, reference->history[i].rho)
              << shape << " " << i;
          EXPECT_EQ(run->history[i].loads, reference->history[i].loads)
              << shape << " " << i;
        }
      }
    }
  }
}

TEST(MultiProcessSpinnerTest, SkewedGraphNineShardsOnThreeWorkers) {
  // Cost-balanced cuts on a power-law graph give shards of very different
  // vertex counts; the run must still match in-process for every S.
  const CsrGraph g = PowerLawConverted(4000, 13);
  SpinnerConfig config;
  config.num_partitions = 6;
  config.seed = 3;
  config.max_iterations = 12;
  config.use_halting = false;

  auto store = ShardedGraphStore::Build(g, 9);
  ASSERT_TRUE(store.ok());
  ASSERT_LT(store->shard(0).NumOwnedVertices(),
            store->shard(8).NumOwnedVertices());
  MultiProcessOptions options;
  options.num_workers = 3;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();

  for (const int num_shards : {1, 3, 9}) {
    std::vector<PartitionId> reference_labels;
    auto reference = ReferenceRun(config, g, num_shards, &reference_labels);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(store->labels(), reference_labels) << "S=" << num_shards;
    EXPECT_EQ(run->iterations, reference->iterations);
    ASSERT_EQ(run->history.size(), reference->history.size());
    for (size_t i = 0; i < run->history.size(); ++i) {
      EXPECT_EQ(run->history[i].score, reference->history[i].score) << i;
      EXPECT_EQ(run->history[i].phi, reference->history[i].phi) << i;
      EXPECT_EQ(run->history[i].rho, reference->history[i].rho) << i;
      EXPECT_EQ(run->history[i].loads, reference->history[i].loads) << i;
    }
  }
}

TEST(MultiProcessSpinnerTest, HeavyLastBlockWithOneShardPerWorker) {
  // A star whose hub is the last vertex: the last, partial block outweighs
  // a shard's share, so the cut is capped at that block's start and one
  // shard is left empty. Every worker's range must still be block-aligned
  // and the run must match in-process.
  const int64_t n = 1000;
  EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, n - 1});
  auto g = BuildSymmetric(n, edges);
  ASSERT_TRUE(g.ok());
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 5;
  config.max_iterations = 8;
  config.use_halting = false;
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, *g, 4, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(*g, 4);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->shard(3).begin, 768);
  EXPECT_EQ(store->shard(2).NumOwnedVertices(), 0);
  MultiProcessOptions options;
  options.num_workers = 4;
  std::vector<PartitionId> no_labels(n, kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);
  ASSERT_EQ(run->history.size(), reference->history.size());
  for (size_t i = 0; i < run->history.size(); ++i) {
    EXPECT_EQ(run->history[i].score, reference->history[i].score) << i;
    EXPECT_EQ(run->history[i].loads, reference->history[i].loads) << i;
  }
}

TEST(MultiProcessSpinnerTest, ReportsComputeTimePerWorker) {
  const CsrGraph g = SmallWorldConverted(1100, 21);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 5;
  config.use_halting = false;
  std::vector<PartitionId> reference_labels;
  ASSERT_TRUE(ReferenceRun(config, g, 3, &reference_labels).ok());

  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  MultiProcessOptions options;
  options.num_workers = 3;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);
  ASSERT_EQ(run->wire.worker_compute_ns.size(), 3u);
  for (const int64_t ns : run->wire.worker_compute_ns) EXPECT_GT(ns, 0);
}

TEST(MultiProcessSpinnerTest, MoreWorkersThanShardsIsFine) {
  const CsrGraph g = SmallWorldConverted(500, 5);
  SpinnerConfig config;
  config.num_partitions = 4;
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 2, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  MultiProcessOptions options;
  options.num_workers = 5;  // three workers own zero shards
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);
}

TEST(MultiProcessSpinnerTest, WarmStoresDownloadNothingAndStaleSlicesAreResent) {
  // Forked workers hosting their slices in a PersistentShardStore: a
  // fresh fleet over a warm store downloads nothing, and a store whose
  // copy of one shard is valid but stale (its Resume fingerprint is
  // non-zero and wrong) gets exactly that slice re-sent. Every run stays
  // bit-identical to the in-process reference.
  const CsrGraph g = SmallWorldConverted(900, 23);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 3;
  const int kShards = 4;
  std::vector<PartitionId> reference_labels;
  ASSERT_TRUE(ReferenceRun(config, g, kShards, &reference_labels).ok());

  const std::string dir = testing::TempDir() + "/mp_warm_store";
  std::filesystem::remove_all(dir);
  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_store_dir = dir;
  const auto run_once = [&](WireTraffic* wire) {
    auto store = ShardedGraphStore::Build(g, kShards);
    ASSERT_TRUE(store.ok());
    std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
    auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                            options, nullptr);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(store->labels(), reference_labels);
    *wire = run->wire;
  };

  WireTraffic cold;
  run_once(&cold);
  EXPECT_EQ(cold.slices_downloaded, kShards);
  EXPECT_EQ(cold.slices_resumed, 0);

  WireTraffic warm;
  run_once(&warm);
  EXPECT_EQ(warm.slices_downloaded, 0);
  EXPECT_EQ(warm.slice_bytes_downloaded, 0);
  EXPECT_EQ(warm.slices_resumed, kShards);

  // Shard 0's hosted copy becomes shard 1's slice: loadable, so reported
  // with a non-zero fingerprint, but not the coordinator's shard 0.
  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> wrong;
  graph_io::AppendShardSlice(store->shard(1), &wrong);
  dist::PersistentShardStore hosted(dir);
  ASSERT_TRUE(hosted.Put(0, wrong).ok());
  ASSERT_TRUE(hosted.Load(0).has_value());

  WireTraffic stale;
  run_once(&stale);
  EXPECT_EQ(stale.slices_downloaded, 1);
  EXPECT_EQ(stale.slices_resumed, kShards - 1);
  auto healed = hosted.Load(0);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->fingerprint, dist::ShardSliceFingerprint(store->shard(0)));
}

TEST(MultiProcessSpinnerTest, StoreLoadsConsistentWithAssignment) {
  const CsrGraph g = SmallWorldConverted(700, 9);
  SpinnerConfig config;
  config.num_partitions = 5;
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  MultiProcessOptions options;
  options.num_workers = 2;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  std::vector<int64_t> expected(5, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    expected[store->labels()[v]] += g.WeightedDegree(v);
  }
  EXPECT_EQ(store->MergedLoads(), expected);
}

TEST(MultiProcessSpinnerTest, ObserverRunsCoordinatorSideAndCanCancel) {
  const CsrGraph g = SmallWorldConverted(600, 13);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 50;
  config.use_halting = false;
  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  int iterations_seen = 0;
  ProgressObserver observer;
  observer.on_iteration = [&](const IterationPoint& pt) {
    ++iterations_seen;
    EXPECT_GT(pt.score, -1.0);
    return iterations_seen < 3;  // stop after three iterations
  };
  MultiProcessOptions options;
  options.num_workers = 2;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, &observer);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->cancelled);
  EXPECT_EQ(iterations_seen, 3);
  EXPECT_EQ(run->iterations, 3);
}

TEST(MultiProcessSpinnerTest, WorkerCrashMidSuperstepSurfacesStatus) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 20;
  config.use_halting = false;
  for (const int fail_worker : {0, 1}) {
    auto store = ShardedGraphStore::Build(g, 4);
    ASSERT_TRUE(store.ok());
    MultiProcessOptions options;
    options.num_workers = 2;
    options.fail_after_score_steps = 2;  // dies in its 3rd ComputeScores
    options.fail_worker = fail_worker;
    std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
    auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                            options, nullptr);
    ASSERT_FALSE(run.ok()) << "fail_worker=" << fail_worker;
    EXPECT_EQ(run.status().code(), StatusCode::kIOError)
        << run.status();
    // The error names the worker so operators can find the corpse.
    EXPECT_NE(run.status().message().find("died"), std::string::npos)
        << run.status();
  }
}

TEST(MultiProcessSpinnerTest, ResolveNumWorkersHonorsExplicitRequest) {
  EXPECT_EQ(dist::ResolveNumWorkers(3, 8), 3);
  EXPECT_GE(dist::ResolveNumWorkers(0, 8), 1);
  EXPECT_LE(dist::ResolveNumWorkers(0, 8), 8);
  EXPECT_EQ(dist::ResolveNumWorkers(0, 1), 1);
}

// --- Chunked streaming through the full protocol --------------------------

TEST(MultiProcessSpinnerTest, TinyFrameLimitStreamsEveryBigMessage) {
  // With the frame payload forced to 1 KiB, the Setup slice download, the
  // snapshot upload and (on dense-enough graphs) the delta broadcasts all
  // cross the wire in chunks — and the run stays bit-identical.
  const CsrGraph g = SmallWorldConverted(1100, 21);
  SpinnerConfig config;
  config.num_partitions = 6;
  config.seed = 7;
  config.max_iterations = 10;
  config.use_halting = false;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 7, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(g, 7);
  ASSERT_TRUE(store.ok());
  MultiProcessOptions options;
  options.num_workers = 3;
  options.transport.max_frame_payload = 1024;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);
  ASSERT_EQ(run->history.size(), reference->history.size());
  for (size_t i = 0; i < run->history.size(); ++i) {
    EXPECT_EQ(run->history[i].score, reference->history[i].score) << i;
    EXPECT_EQ(run->history[i].phi, reference->history[i].phi) << i;
    EXPECT_EQ(run->history[i].rho, reference->history[i].rho) << i;
  }
  // The point of the exercise: chunk reassembly actually ran.
  EXPECT_GT(run->wire.chunked_messages, 0);
  EXPECT_GT(run->wire.frames_sent, run->wire.chunked_messages);
}

// --- Boundary subscriptions -----------------------------------------------

/// Two disjoint 256-vertex rings, each exactly one shard (kBlockSize
/// aligned): with S = W = 2 the cross-worker cut is empty.
CsrGraph TwoRingsConverted(bool bridge) {
  EdgeList edges;
  for (int64_t half = 0; half < 2; ++half) {
    const int64_t base = half * 256;
    for (int64_t i = 0; i < 256; ++i) {
      edges.push_back({base + i, base + (i + 1) % 256});
    }
  }
  if (bridge) edges.push_back({255, 256});  // one edge across the cut
  auto converted = BuildSymmetric(512, edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

/// Complete bipartite K_{256,256} across the two shards: every vertex has
/// an out-of-range neighbor, so every vertex is subscribed by the other
/// worker.
CsrGraph BipartiteConverted() {
  EdgeList edges;
  for (int64_t u = 0; u < 256; ++u) {
    for (int64_t v = 256; v < 512; ++v) {
      edges.push_back({u, v});
    }
  }
  auto converted = BuildSymmetric(512, edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

struct SubscriptionRun {
  std::vector<PartitionId> labels;
  ShardedRunResult result;
};

Result<SubscriptionRun> RunTwoWorkerCase(const CsrGraph& g,
                                         const SpinnerConfig& config) {
  auto store = ShardedGraphStore::Build(g, 2);
  if (!store.ok()) return store.status();
  MultiProcessOptions options;
  options.num_workers = 2;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  if (!run.ok()) return run.status();
  SubscriptionRun out;
  out.labels = store->labels();
  out.result = std::move(run).value();
  return out;
}

TEST(MultiProcessSubscriptionTest, EmptyCutMeansNoLabelTraffic) {
  const CsrGraph g = TwoRingsConverted(/*bridge=*/false);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 3;
  config.max_iterations = 8;
  config.use_halting = false;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 2, &reference_labels);
  ASSERT_TRUE(reference.ok());
  auto run = RunTwoWorkerCase(g, config);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->labels, reference_labels);
  ASSERT_EQ(run->result.history.size(), reference->history.size());
  for (size_t i = 0; i < run->result.history.size(); ++i) {
    EXPECT_EQ(run->result.history[i].score, reference->history[i].score);
    EXPECT_EQ(run->result.history[i].phi, reference->history[i].phi);
    EXPECT_EQ(run->result.history[i].rho, reference->history[i].rho);
  }
  // No shard has an out-of-range neighbor: nothing is mirrored, and after
  // Init not a single label value or delta crosses the wire.
  EXPECT_EQ(run->result.wire.subscribed_vertices, 0);
  EXPECT_EQ(run->result.wire.label_values_sent, 0);
  EXPECT_EQ(run->result.wire.delta_entries_sent, 0);
}

TEST(MultiProcessSubscriptionTest, CompleteBipartiteCutSubscribesEveryone) {
  const CsrGraph g = BipartiteConverted();
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 5;
  config.max_iterations = 6;
  config.use_halting = false;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 2, &reference_labels);
  ASSERT_TRUE(reference.ok());
  auto run = RunTwoWorkerCase(g, config);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->labels, reference_labels);
  ASSERT_EQ(run->result.history.size(), reference->history.size());
  for (size_t i = 0; i < run->result.history.size(); ++i) {
    EXPECT_EQ(run->result.history[i].score, reference->history[i].score);
    EXPECT_EQ(run->result.history[i].phi, reference->history[i].phi);
    EXPECT_EQ(run->result.history[i].rho, reference->history[i].rho);
  }
  // Every vertex is some other worker's boundary: the mirror seed covers
  // the whole graph exactly once.
  EXPECT_EQ(run->result.wire.subscribed_vertices, g.NumVertices());
  EXPECT_EQ(run->result.wire.label_values_sent, g.NumVertices());
}

TEST(MultiProcessSubscriptionTest, LowCutLabelTrafficIsBoundaryBound) {
  // One bridge edge between the rings: exactly two boundary vertices.
  // Label traffic after Init must cover only those — the coordinator's
  // wire counters make the O(V·workers) → O(boundary) change observable.
  const CsrGraph g = TwoRingsConverted(/*bridge=*/true);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 11;
  config.max_iterations = 8;
  config.use_halting = false;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 2, &reference_labels);
  ASSERT_TRUE(reference.ok());
  auto run = RunTwoWorkerCase(g, config);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->labels, reference_labels);

  const WireTraffic& wire = run->result.wire;
  EXPECT_EQ(wire.subscribed_vertices, 2);
  EXPECT_EQ(wire.label_values_sent, 2);
  // A subscribed vertex can move at most once per iteration.
  EXPECT_LE(wire.delta_entries_sent,
            wire.subscribed_vertices * run->result.iterations);
  // One per-superstep bytes entry per driver superstep, all accounted.
  EXPECT_EQ(wire.per_superstep_bytes.size(),
            run->result.run_stats.per_superstep.size());
  int64_t step_total = 0;
  for (const int64_t bytes : wire.per_superstep_bytes) {
    EXPECT_GT(bytes, 0);
    step_total += bytes;
  }
  EXPECT_LE(step_total, wire.bytes_sent);
}

// --- SpinnerPartitioner over forked workers ----------------------------

/// A partitioner running in `mode`: 3 shards, and 2 forked workers when
/// the mode is off-thread.
SpinnerPartitioner PartitionerIn(ExecutionMode mode) {
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 3;
  config.max_iterations = 12;
  config.execution.mode = mode;
  config.execution.num_shards = 3;
  config.execution.num_workers = 2;
  return SpinnerPartitioner(config);
}

/// The forked-worker result against the in-process one: assignment, float
/// history and metrics bit for bit.
void ExpectSameResult(const PartitionResult& got,
                      const PartitionResult& want) {
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.num_partitions, want.num_partitions);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.history.size(), want.history.size());
  for (size_t i = 0; i < got.history.size(); ++i) {
    EXPECT_EQ(got.history[i].score, want.history[i].score) << i;
    EXPECT_EQ(got.history[i].phi, want.history[i].phi) << i;
    EXPECT_EQ(got.history[i].rho, want.history[i].rho) << i;
    EXPECT_EQ(got.history[i].migrations, want.history[i].migrations) << i;
    EXPECT_EQ(got.history[i].loads, want.history[i].loads) << i;
  }
  EXPECT_EQ(got.metrics.phi, want.metrics.phi);
  EXPECT_EQ(got.metrics.rho, want.metrics.rho);
  EXPECT_EQ(got.metrics.score, want.metrics.score);
  EXPECT_EQ(got.metrics.loads, want.metrics.loads);
  EXPECT_EQ(got.metrics.cut_weight, want.metrics.cut_weight);
  EXPECT_EQ(got.metrics.total_weight, want.metrics.total_weight);
  // The run really left the process, and only that one.
  EXPECT_GT(got.wire.bytes_sent, 0);
  EXPECT_EQ(want.wire.bytes_sent, 0);
}

TEST(MultiProcessPartitionerTest, PartitionMatchesInProcess) {
  const CsrGraph g = SmallWorldConverted(900, 13);
  auto in_process = PartitionerIn(ExecutionMode::kInProcess).Partition(g);
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  auto forked = PartitionerIn(ExecutionMode::kMultiProcess).Partition(g);
  ASSERT_TRUE(forked.ok()) << forked.status();
  ExpectSameResult(*forked, *in_process);
}

TEST(MultiProcessPartitionerTest, RepartitionMatchesInProcess) {
  const CsrGraph g = SmallWorldConverted(900, 13);
  auto scratch = PartitionerIn(ExecutionMode::kInProcess).Partition(g);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  // The last 60 vertices are new: they join the least-loaded partition.
  const std::span<const PartitionId> previous(
      scratch->assignment.data(), scratch->assignment.size() - 60);
  auto in_process =
      PartitionerIn(ExecutionMode::kInProcess).Repartition(g, previous);
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  auto forked =
      PartitionerIn(ExecutionMode::kMultiProcess).Repartition(g, previous);
  ASSERT_TRUE(forked.ok()) << forked.status();
  ExpectSameResult(*forked, *in_process);
}

TEST(MultiProcessPartitionerTest, RescaleMatchesInProcess) {
  const CsrGraph g = SmallWorldConverted(900, 13);
  auto scratch = PartitionerIn(ExecutionMode::kInProcess).Partition(g);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  for (const int new_k : {8, 3}) {
    SCOPED_TRACE("new_k " + std::to_string(new_k));
    auto in_process = PartitionerIn(ExecutionMode::kInProcess)
                          .Rescale(g, scratch->assignment, new_k);
    ASSERT_TRUE(in_process.ok()) << in_process.status();
    auto forked = PartitionerIn(ExecutionMode::kMultiProcess)
                      .Rescale(g, scratch->assignment, new_k);
    ASSERT_TRUE(forked.ok()) << forked.status();
    EXPECT_EQ(forked->num_partitions, new_k);
    ExpectSameResult(*forked, *in_process);
  }
}

}  // namespace
}  // namespace spinner
