// PersistentShardStore (one atomically replaced file per shard) and the
// worker's compact index layout — the label and scratch arrays cover
// owned + subscribed vertices, not all of V, and every CSR target remaps
// to a slot in that compact array.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/base_log.h"
#include "common/fnv.h"
#include "dist/shard_store.h"
#include "dist/worker.h"
#include "graph/binary_io.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"

namespace spinner {
namespace {

using dist::PersistentShardStore;
using dist::RemapToWorkerLayout;
using dist::ShardSliceFingerprint;
using dist::WorkerLayout;

CsrGraph SmallWorldConverted(int64_t n, uint64_t seed = 11) {
  auto ws = WattsStrogatz(n, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

std::vector<uint8_t> SliceBytes(const ShardedGraphStore::Shard& shard) {
  std::vector<uint8_t> bytes;
  graph_io::AppendShardSlice(shard, &bytes);
  return bytes;
}

std::string FreshDir(const std::string& name) {
  // TempDir is stable across test runs; wipe leftovers so every test
  // really starts from an absent store.
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Replaces `path` with exactly `bytes`.
void WriteFileBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  SPINNER_CHECK(f != nullptr);
  if (!bytes.empty()) {
    SPINNER_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size());
  }
  SPINNER_CHECK(std::fclose(f) == 0);
}

// --- ShardSliceFingerprint -------------------------------------------------

TEST(ShardSliceFingerprintTest, FoldedPiecesEqualTheDigestOfTheEncodedSlice) {
  // The Shard overload folds the encoding piece by piece; it must equal
  // the digest of the encoded bytes, which is what a worker reports for
  // the slice it stored.
  std::vector<ShardedGraphStore::Shard> shards(1);  // default: no arrays
  ShardedGraphStore::Shard empty;
  empty.begin = 512;
  empty.end = 512;
  empty.offsets = {0};
  shards.push_back(empty);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const CsrGraph g =
        SmallWorldConverted(200 + 97 * static_cast<int64_t>(seed), seed);
    auto store = ShardedGraphStore::Build(g, 1 + static_cast<int>(seed % 4));
    ASSERT_TRUE(store.ok()) << store.status();
    for (int s = 0; s < store->num_shards(); ++s) {
      shards.push_back(store->shard(s));
    }
  }
  // Full-range weights: the u8 weight array at every byte value (the
  // encoding does not check them against the weighted degrees).
  ShardedGraphStore::Shard heavy = shards.back();
  for (size_t i = 0; i < heavy.weights.size(); ++i) {
    heavy.weights[i] = static_cast<ShardedGraphStore::Weight>(1 + i % 255);
  }
  shards.push_back(heavy);
  for (size_t i = 0; i < shards.size(); ++i) {
    const std::vector<uint8_t> bytes = SliceBytes(shards[i]);
    EXPECT_EQ(ShardSliceFingerprint(shards[i]), ChecksumBytes(bytes))
        << "shard " << i;
    EXPECT_EQ(ShardSliceFingerprint(shards[i]), ShardSliceFingerprint(bytes))
        << "shard " << i;
  }
}

// --- PersistentShardStore --------------------------------------------------

TEST(PersistentShardStoreTest, BaseRoundTripsWithMatchingFingerprint) {
  const CsrGraph g = SmallWorldConverted(700);
  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  const std::string dir = FreshDir("spsb_roundtrip");
  PersistentShardStore disk(dir);

  for (int s = 0; s < 3; ++s) {
    const auto bytes = SliceBytes(store->shard(s));
    ASSERT_TRUE(disk.Put(s, bytes).ok());
    auto loaded = disk.Load(s);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(bytes));
    EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(store->shard(s)));
    EXPECT_EQ(loaded->shard.begin, store->shard(s).begin);
    EXPECT_EQ(loaded->shard.targets, store->shard(s).targets);
    EXPECT_EQ(loaded->shard.weights, store->shard(s).weights);
  }
  // One file per shard, nothing beside it.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"shard_0.base", "shard_1.base",
                                             "shard_2.base"}));
}

TEST(PersistentShardStoreTest, AbsentShardLoadsAsNullopt) {
  PersistentShardStore disk(FreshDir("spsb_absent"));
  auto loaded = disk.Load(7);
  EXPECT_FALSE(loaded.has_value());
}

TEST(PersistentShardStoreTest, PutCreatesEveryMissingParentOfTheRoot) {
  const CsrGraph g = SmallWorldConverted(300, 5);
  auto store = ShardedGraphStore::Build(g, 1);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> bytes = SliceBytes(store->shard(0));
  const std::string dir = FreshDir("spsb_nested");

  PersistentShardStore nested(dir + "/a/b/c");
  ASSERT_TRUE(nested.Put(0, bytes).ok());
  auto loaded = nested.Load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(bytes));

  // A root below a regular file cannot be created: Put says so, with
  // the root's path.
  WriteFileBytes(dir + "/plain", {});
  const std::string blocked_root = dir + "/plain/store";
  const Status blocked = PersistentShardStore(blocked_root).Put(0, bytes);
  EXPECT_EQ(blocked.code(), StatusCode::kIOError) << blocked;
  EXPECT_NE(blocked.message().find(blocked_root), std::string::npos)
      << blocked;
}

TEST(PersistentShardStoreTest, CorruptBaseMeansRedownloadNotCrash) {
  const CsrGraph g = SmallWorldConverted(500, 7);
  auto store = ShardedGraphStore::Build(g, 1);
  ASSERT_TRUE(store.ok());
  PersistentShardStore disk(FreshDir("spsb_badbase"));
  ASSERT_TRUE(disk.Put(0, SliceBytes(store->shard(0))).ok());

  // Flip one byte in the middle of the base file.
  const std::string path = disk.BasePath(0);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  std::fputc(0xff, f);
  std::fclose(f);

  auto loaded = disk.Load(0);
  EXPECT_FALSE(loaded.has_value());  // "re-download", never fatal
}

TEST(PersistentShardStoreTest, TornWriteRollsBackAndRedownloadHeals) {
  // The failover-resume sequence: a worker crashed while replacing shard
  // 0's file, leaving the old file beside a partial shard_0.base.tmp
  // holding the first c bytes of the new image. For every c, a fresh
  // store instance (the replacement worker) must load the OLD slice, so
  // its Resume fingerprint is stale and the coordinator re-downloads
  // that one slice — never an error, never a wedge. The re-download (a
  // Put of the authoritative bytes) then heals the store.
  const CsrGraph g1 = SmallWorldConverted(120, 3);
  const CsrGraph g2 = SmallWorldConverted(120, 4);
  auto s1 = ShardedGraphStore::Build(g1, 1);
  auto s2 = ShardedGraphStore::Build(g2, 1);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const std::vector<uint8_t> old_bytes = SliceBytes(s1->shard(0));
  const std::vector<uint8_t> new_bytes = SliceBytes(s2->shard(0));
  const std::string dir = FreshDir("spsb_torn");
  ASSERT_TRUE(PersistentShardStore(dir).Put(0, old_bytes).ok());
  const std::string base_path = PersistentShardStore(dir).BasePath(0);
  const std::string tmp_path = base_path + ".tmp";

  // The new file image: "SPSB" | version 2 | slice | fnv(slice).
  std::vector<uint8_t> image = {'S', 'P', 'S', 'B', 2, 0, 0, 0};
  image.insert(image.end(), new_bytes.begin(), new_bytes.end());
  const uint64_t fnv = ChecksumBytes(new_bytes);
  const auto* fnv_bytes = reinterpret_cast<const uint8_t*>(&fnv);
  image.insert(image.end(), fnv_bytes, fnv_bytes + sizeof(fnv));

  for (size_t c = 0; c <= image.size(); ++c) {
    WriteFileBytes(tmp_path, std::span<const uint8_t>(image.data(), c));
    auto loaded = PersistentShardStore(dir).Load(0);
    ASSERT_TRUE(loaded.has_value()) << "c=" << c;
    ASSERT_EQ(loaded->fingerprint, ShardSliceFingerprint(old_bytes))
        << "c=" << c;
    ASSERT_EQ(loaded->shard.targets, s1->shard(0).targets) << "c=" << c;
  }

  PersistentShardStore replacement(dir);
  ASSERT_TRUE(replacement.Put(0, new_bytes).ok());
  auto healed = replacement.Load(0);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->fingerprint, ShardSliceFingerprint(new_bytes));
  EXPECT_EQ(healed->shard.targets, s2->shard(0).targets);
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
}

TEST(PersistentShardStoreTest, DeltaLogOfAnOlderStoreIsIgnored) {
  // Stores written before the one-file layout kept an "SPSD" delta log
  // beside each base, whose last record was the current slice. Such a
  // log is ignored: Load reports the base's fingerprint, never the
  // record's, so the coordinator re-downloads that one slice.
  const CsrGraph g1 = SmallWorldConverted(600, 3);
  const CsrGraph g2 = SmallWorldConverted(600, 4);
  auto s1 = ShardedGraphStore::Build(g1, 1);
  auto s2 = ShardedGraphStore::Build(g2, 1);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const std::vector<uint8_t> base_bytes = SliceBytes(s1->shard(0));
  const std::vector<uint8_t> record_bytes = SliceBytes(s2->shard(0));
  const std::string dir = FreshDir("spsb_old_dlog");
  PersistentShardStore disk(dir);
  ASSERT_TRUE(disk.Put(0, base_bytes).ok());
  const std::string log_path = dir + "/shard_0.dlog";
  constexpr char kOldLogMagic[4] = {'S', 'P', 'S', 'D'};
  ASSERT_TRUE(
      CreateLog(log_path, kOldLogMagic, 2, ChecksumBytes(base_bytes)).ok());
  ASSERT_TRUE(AppendLogRecord(log_path, record_bytes).ok());

  auto loaded = PersistentShardStore(dir).Load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(base_bytes));
  EXPECT_NE(loaded->fingerprint, ShardSliceFingerprint(record_bytes));
  EXPECT_EQ(loaded->shard.targets, s1->shard(0).targets);
}

TEST(PersistentShardStoreTest, DirectoryAtBasePathLoadsAsAbsent) {
  // A directory is not a base: Load must report the shard absent (the
  // coordinator re-downloads it), not size a buffer from the directory.
  const std::string dir = FreshDir("spsb_dir_base");
  PersistentShardStore disk(dir);
  ASSERT_TRUE(std::filesystem::create_directories(disk.BasePath(0)));
  auto loaded = disk.Load(0);
  EXPECT_FALSE(loaded.has_value());
}

// --- Worker layout (the index remap) --------------------------------------

TEST(WorkerLayoutTest, SlotsCoverOwnedPlusSubscribedNotAllOfV) {
  const CsrGraph g = SmallWorldConverted(2000, 13);
  auto store = ShardedGraphStore::Build(g, 6);
  ASSERT_TRUE(store.ok());
  ASSERT_GE(store->num_shards(), 4);

  // A middle worker owning shards {1, 2}.
  std::vector<ShardedGraphStore::Shard> shards = {store->shard(1),
                                                  store->shard(2)};
  auto layout = RemapToWorkerLayout(shards, g.NumVertices());
  ASSERT_TRUE(layout.ok()) << layout.status();
  EXPECT_EQ(layout->owned_begin, store->shard(1).begin);
  EXPECT_EQ(layout->owned_end, store->shard(2).end);
  EXPECT_EQ(layout->owned_count(),
            store->shard(2).end - store->shard(1).begin);

  // The whole point of the remap: state is O(owned + boundary), not O(V).
  EXPECT_GT(layout->subscription.size(), 0u);
  EXPECT_LT(layout->num_slots(), g.NumVertices());
  EXPECT_EQ(layout->num_slots(),
            layout->owned_count() +
                static_cast<int64_t>(layout->subscription.size()));

  // The subscription is exactly the strictly-ascending out-of-range
  // neighbor set.
  for (size_t i = 1; i < layout->subscription.size(); ++i) {
    EXPECT_LT(layout->subscription[i - 1], layout->subscription[i]);
  }
  for (const VertexId v : layout->subscription) {
    EXPECT_FALSE(layout->Owns(v));
    EXPECT_GE(v, 0);
    EXPECT_LT(v, g.NumVertices());
  }
}

TEST(WorkerLayoutTest, RemapSendsEveryTargetToItsCompactSlot) {
  const CsrGraph g = SmallWorldConverted(1500, 19);
  auto store = ShardedGraphStore::Build(g, 5);
  ASSERT_TRUE(store.ok());
  std::vector<ShardedGraphStore::Shard> shards = {store->shard(1),
                                                  store->shard(2)};
  auto layout = RemapToWorkerLayout(shards, g.NumVertices());
  ASSERT_TRUE(layout.ok()) << layout.status();

  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardedGraphStore::Shard& shard = shards[s];
    const std::vector<ShardedGraphStore::Target>& global_targets =
        store->shard(static_cast<int>(s) + 1).targets;
    ASSERT_EQ(shard.targets.size(), global_targets.size());
    for (size_t i = 0; i < shard.targets.size(); ++i) {
      const VertexId slot = shard.targets[i];
      ASSERT_GE(slot, 0);
      ASSERT_LT(slot, layout->num_slots());
      // Each slot maps back to the global id it replaced.
      const VertexId global =
          slot < layout->owned_count()
              ? layout->owned_begin + slot
              : layout->subscription[static_cast<size_t>(
                    slot - layout->owned_count())];
      EXPECT_EQ(global, global_targets[i]) << "i=" << i;
    }
  }
}

TEST(WorkerLayoutTest, RejectsGapsAndForeignTargets) {
  const CsrGraph g = SmallWorldConverted(2000, 13);
  auto store = ShardedGraphStore::Build(g, 6);
  ASSERT_TRUE(store.ok());

  // Non-contiguous assignment (a gap between shards 1 and 3).
  std::vector<ShardedGraphStore::Shard> gap = {store->shard(1),
                                               store->shard(3)};
  EXPECT_FALSE(RemapToWorkerLayout(gap, g.NumVertices()).ok());

  // A target outside [0, n) can never be resolved.
  std::vector<ShardedGraphStore::Shard> bad = {store->shard(0)};
  ASSERT_FALSE(bad[0].targets.empty());
  bad[0].targets[0] =
      static_cast<ShardedGraphStore::Target>(g.NumVertices() + 5);
  EXPECT_FALSE(RemapToWorkerLayout(bad, g.NumVertices()).ok());
}

TEST(WorkerLayoutTest, EmptyAssignmentYieldsEmptyLayout) {
  auto layout = RemapToWorkerLayout({}, 1000);
  ASSERT_TRUE(layout.ok()) << layout.status();
  EXPECT_EQ(layout->owned_count(), 0);
  EXPECT_EQ(layout->num_slots(), 0);
  EXPECT_EQ(layout->num_blocks(), 0);
  EXPECT_TRUE(layout->subscription.empty());
}

}  // namespace
}  // namespace spinner
