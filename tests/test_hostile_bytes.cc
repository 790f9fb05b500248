// Hostile bytes against the shard formats — the SPSL slice decoder and the
// SPSB shard-store base — and the Assign handshake message. Every cut and
// every single-byte flip of a small encoded slice must end in a clean
// Status or a clean store miss — never a crash, an out-of-bounds read or
// an allocation larger than the input.
// The ASan/UBSan chaos lane (ci.sh --mode=chaos) runs this suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/base_log.h"
#include "dist/shard_store.h"
#include "dist/wire_format.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "slice_v1_reference.h"

namespace spinner {
namespace {

using dist::PersistentShardStore;

/// A directed Watts–Strogatz store (Eq. 3 weights 1 and 2) of 300
/// vertices in two shards: shard 1 owns [256, 300), so its slice has a
/// non-zero begin and stays small enough to cut at every byte.
ShardedGraphStore SmallStore() {
  auto ws = WattsStrogatz(300, 3, 0.3, 17);
  SPINNER_CHECK(ws.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ws->num_vertices,
                                                   ws->edges, true, 2);
  SPINNER_CHECK(store.ok());
  return std::move(store).value();
}

std::vector<uint8_t> SliceBytes(const ShardedGraphStore::Shard& shard) {
  std::vector<uint8_t> bytes;
  graph_io::AppendShardSlice(shard, &bytes);
  return bytes;
}

/// The byte range of the targets array inside an SPSL v2 slice.
struct Section {
  size_t begin;
  size_t end;
};
Section TargetsSection(const ShardedGraphStore::Shard& shard) {
  const size_t header = 4 + 4 + 3 * sizeof(int64_t);
  const size_t offsets =
      static_cast<size_t>(shard.NumOwnedVertices() + 1) * sizeof(int64_t);
  const size_t targets = static_cast<size_t>(shard.NumArcs()) *
                         sizeof(ShardedGraphStore::Target);
  return {header + offsets, header + offsets + targets};
}

bool IsCleanRejection(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kInvalidArgument;
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFile(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(HostileBytesTest, SliceRoundTripsAtFiveBytesPerArc) {
  const ShardedGraphStore store = SmallStore();
  const ShardedGraphStore::Shard& shard = store.shard(1);
  ASSERT_EQ(shard.begin, 256);
  const std::vector<uint8_t> bytes = SliceBytes(shard);
  const size_t owned = static_cast<size_t>(shard.NumOwnedVertices());
  const size_t arcs = static_cast<size_t>(shard.NumArcs());
  EXPECT_EQ(bytes.size(), 32 + (owned + 1) * 8 + arcs * 5 + owned * 8);
  EXPECT_EQ(bytes.size(), graph_io::EncodedShardSliceSize(shard));
  size_t consumed = 0;
  auto decoded = graph_io::DecodeShardSlice(bytes, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(SliceBytes(*decoded), bytes);
}

TEST(HostileBytesTest, SliceCutAtEveryOffsetIsRejected) {
  const ShardedGraphStore store = SmallStore();
  const std::vector<uint8_t> bytes = SliceBytes(store.shard(1));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t consumed = 0;
    auto decoded = graph_io::DecodeShardSlice(
        std::span<const uint8_t>(bytes.data(), cut), &consumed);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_TRUE(IsCleanRejection(decoded.status()))
        << "cut=" << cut << ": " << decoded.status();
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
}

TEST(HostileBytesTest, SliceFlipIsRejectedUnlessItOnlyRetargetsAnArc) {
  // Everything but a target value is cross-checked: sizes against the
  // buffer, offsets for monotonicity, weights against 0 and each degree
  // against its row's weight sum (weights are >= 1, so a moved offset
  // changes two row sums). A flipped target is a valid id to the decoder;
  // only the receiver, which knows n, can reject it.
  const ShardedGraphStore store = SmallStore();
  const ShardedGraphStore::Shard& shard = store.shard(1);
  const std::vector<uint8_t> bytes = SliceBytes(shard);
  const Section targets = TargetsSection(shard);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0xFF;
    size_t consumed = 0;
    auto decoded = graph_io::DecodeShardSlice(flipped, &consumed);
    if (i < targets.begin || i >= targets.end) {
      ASSERT_FALSE(decoded.ok()) << "byte " << i;
      EXPECT_TRUE(IsCleanRejection(decoded.status()))
          << "byte " << i << ": " << decoded.status();
      continue;
    }
    ASSERT_TRUE(decoded.ok()) << "byte " << i << ": " << decoded.status();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded->offsets, shard.offsets);
    EXPECT_EQ(decoded->weights, shard.weights);
    EXPECT_EQ(decoded->weighted_degree, shard.weighted_degree);
    const size_t arc = (i - targets.begin) / sizeof(ShardedGraphStore::Target);
    for (size_t j = 0; j < shard.targets.size(); ++j) {
      EXPECT_EQ(decoded->targets[j] != shard.targets[j], j == arc)
          << "byte " << i << " arc " << j;
    }
  }
}

TEST(HostileBytesTest, SliceEndingPast32BitIdsIsRejectedBeforeItsBody) {
  // A header alone: begin 0, end 2^32 + 1, no arcs. The range check comes
  // before any array is sized from it.
  std::vector<uint8_t> bytes = {'S', 'P', 'S', 'L', 2, 0, 0, 0};
  const auto put = [&bytes](int64_t value) {
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    bytes.insert(bytes.end(), p, p + sizeof(value));
  };
  put(0);
  put(ShardedGraphStore::kMaxVertices + 1);
  put(0);
  size_t consumed = 0;
  auto decoded = graph_io::DecodeShardSlice(bytes, &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status();

  // End 2^32 is in range: the same header is then merely truncated.
  std::memcpy(bytes.data() + 16, &ShardedGraphStore::kMaxVertices,
              sizeof(int64_t));
  decoded = graph_io::DecodeShardSlice(bytes, &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError)
      << decoded.status();
}

TEST(HostileBytesTest, Version1SliceIsAnUnsupportedVersion) {
  const ShardedGraphStore store = SmallStore();
  const std::vector<uint8_t> v1 =
      slice_v1_reference::EncodeSlice(store.shard(1));
  size_t consumed = 0;
  auto decoded = graph_io::DecodeShardSlice(v1, &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status();
}

TEST(HostileBytesTest, StoreBaseCutOrFlippedLoadsAsAMiss) {
  const ShardedGraphStore store = SmallStore();
  const std::vector<uint8_t> slice = SliceBytes(store.shard(1));
  const std::string dir = FreshDir("hostile_base");
  {
    PersistentShardStore writer(dir);
    ASSERT_TRUE(writer.Put(1, slice).ok());
  }
  const std::string base_path = PersistentShardStore(dir).BasePath(1);
  auto base = ReadFileBytes(base_path);
  ASSERT_TRUE(base.ok()) << base.status();
  const std::vector<uint8_t> good = *base;
  ASSERT_EQ(good.size(), 8 + slice.size() + 8);

  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteFile(base_path, std::span<const uint8_t>(good.data(), cut));
    EXPECT_FALSE(PersistentShardStore(dir).Load(1).has_value())
        << "cut=" << cut;
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> flipped = good;
    flipped[i] ^= 0xFF;
    WriteFile(base_path, flipped);
    EXPECT_FALSE(PersistentShardStore(dir).Load(1).has_value())
        << "byte " << i;
  }

  WriteFile(base_path, good);
  auto loaded = PersistentShardStore(dir).Load(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(SliceBytes(loaded->shard), slice);
  std::filesystem::remove_all(dir);
}

TEST(HostileBytesTest, Version1StoreBaseIsAMissAndPutReplacesIt) {
  // A store written before the compact layout holds an SPSB version 1
  // base: it must read as absent, and hosting the shard again replaces it
  // with a version 2 base.
  const ShardedGraphStore store = SmallStore();
  const ShardedGraphStore::Shard& shard = store.shard(1);
  const std::string dir = FreshDir("hostile_v1_base");
  PersistentShardStore hosted(dir);
  slice_v1_reference::WriteBase(hosted.BasePath(1),
                                slice_v1_reference::EncodeSlice(shard));
  EXPECT_FALSE(hosted.Load(1).has_value());

  const std::vector<uint8_t> slice = SliceBytes(shard);
  ASSERT_TRUE(hosted.Put(1, slice).ok());
  auto loaded = hosted.Load(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, dist::ShardSliceFingerprint(slice));
  EXPECT_EQ(SliceBytes(loaded->shard), slice);
  std::filesystem::remove_all(dir);
}

/// A protocol-6 Assign owning shards 2..4 of 9.
dist::AssignMessage SmallAssign() {
  dist::AssignMessage assign;
  assign.num_partitions = 8;
  assign.seed = 5;
  assign.num_vertices = 300;
  assign.num_shards_total = 9;
  assign.owned_shards = {2, 3, 4};
  assign.fail_after_score_steps = -1;
  return assign;
}

TEST(HostileBytesTest, AssignCutOrFlippedIsRejectedOrDecodedInBounds) {
  const std::vector<uint8_t> bytes = SmallAssign().Encode();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    auto decoded = dist::AssignMessage::Decode(truncated);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_TRUE(IsCleanRejection(decoded.status())) << decoded.status();
  }
  // A flip either fails cleanly (a count past the payload, say) or
  // decodes to a message whose shard list is no longer than the input.
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> flipped = bytes;
    flipped[at] ^= 0x80;
    auto decoded = dist::AssignMessage::Decode(flipped);
    if (!decoded.ok()) {
      EXPECT_TRUE(IsCleanRejection(decoded.status())) << decoded.status();
      continue;
    }
    EXPECT_LE(decoded->owned_shards.size() * sizeof(int32_t), bytes.size())
        << "flip at " << at;
  }
}

TEST(HostileBytesTest, Protocol5AssignIsRejectedNotMisread) {
  // Protocol 5 put a vec<u64> of slice fingerprints between owned_shards
  // and fail_after_score_steps. Read as protocol 6, the fingerprint count
  // would land in fail_after_score_steps; the decoder must refuse the
  // trailing bytes instead.
  const dist::AssignMessage assign = SmallAssign();
  dist::WireWriter w;
  w.PutI32(assign.num_partitions);
  w.PutU64(assign.seed);
  w.PutU8(assign.balance_on_vertices);
  w.PutU8(assign.per_worker_async);
  w.PutI64(assign.num_vertices);
  w.PutI32(assign.num_shards_total);
  w.PutVector(assign.owned_shards);
  w.PutVector(std::vector<uint64_t>{11, 12, 13});
  w.PutI32(assign.fail_after_score_steps);
  auto decoded = dist::AssignMessage::Decode(w.Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status();
}

}  // namespace
}  // namespace spinner
