// PersistentShardStore (base + append-only delta log, crash-tolerant
// tails, compaction) and the worker's compact index layout — the label
// and scratch arrays cover owned + subscribed vertices, not all of V, and
// every CSR target remaps to a slot in that compact array.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

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

/// Appends `n` raw bytes to a file (corrupt-tail injection).
void AppendGarbage(const std::string& path, int n) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  SPINNER_CHECK(f != nullptr);
  for (int i = 0; i < n; ++i) std::fputc(0x5a, f);
  std::fclose(f);
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
  PersistentShardStore disk(FreshDir("spsb_roundtrip"));

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
  EXPECT_EQ(disk.bases_written(), 3);
  EXPECT_EQ(disk.records_appended(), 0);
}

TEST(PersistentShardStoreTest, AbsentShardLoadsAsNullopt) {
  PersistentShardStore disk(FreshDir("spsb_absent"));
  auto loaded = disk.Load(7);
  EXPECT_FALSE(loaded.has_value());
}

TEST(PersistentShardStoreTest, MatchingPutIsANoOpAndUpdatesAppend) {
  const CsrGraph g1 = SmallWorldConverted(600, 3);
  const CsrGraph g2 = SmallWorldConverted(600, 4);
  auto s1 = ShardedGraphStore::Build(g1, 1);
  auto s2 = ShardedGraphStore::Build(g2, 1);
  ASSERT_TRUE(s1.ok() && s2.ok());
  PersistentShardStore disk(FreshDir("spsb_noop"));

  ASSERT_TRUE(disk.Put(0, SliceBytes(s1->shard(0))).ok());
  ASSERT_TRUE(disk.Put(0, SliceBytes(s1->shard(0))).ok());  // no-op
  EXPECT_EQ(disk.bases_written(), 1);
  EXPECT_EQ(disk.records_appended(), 0);

  // New content for the same shard: one delta record, latest wins.
  ASSERT_TRUE(disk.Put(0, SliceBytes(s2->shard(0))).ok());
  EXPECT_EQ(disk.records_appended(), 1);
  auto loaded = disk.Load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(s2->shard(0)));
  EXPECT_EQ(loaded->shard.targets, s2->shard(0).targets);
}

TEST(PersistentShardStoreTest, CompactionFoldsTheLogIntoAFreshBase) {
  PersistentShardStore::Options options;
  options.compact_after_records = 2;
  PersistentShardStore disk(FreshDir("spsb_compact"), options);

  std::vector<uint64_t> last_fingerprint;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const CsrGraph g = SmallWorldConverted(600, seed);
    auto store = ShardedGraphStore::Build(g, 1);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(disk.Put(0, SliceBytes(store->shard(0))).ok());
    auto loaded = disk.Load(0);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(store->shard(0)));
  }
  EXPECT_GT(disk.compactions(), 0);
  // Replay stays bounded: the live log never exceeds the threshold.
  EXPECT_LT(disk.records_appended(),
            5 * options.compact_after_records);
}

TEST(PersistentShardStoreTest, CorruptLogTailRollsBackToLastValidRecord) {
  const CsrGraph g1 = SmallWorldConverted(600, 3);
  const CsrGraph g2 = SmallWorldConverted(600, 4);
  auto s1 = ShardedGraphStore::Build(g1, 1);
  auto s2 = ShardedGraphStore::Build(g2, 1);
  ASSERT_TRUE(s1.ok() && s2.ok());
  PersistentShardStore disk(FreshDir("spsb_tail"));
  ASSERT_TRUE(disk.Put(0, SliceBytes(s1->shard(0))).ok());
  ASSERT_TRUE(disk.Put(0, SliceBytes(s2->shard(0))).ok());  // record 1

  // A crash mid-append leaves a truncated record at the tail. It must be
  // ignored — the slice rolls back to the last valid record.
  AppendGarbage(disk.LogPath(0), 21);
  auto loaded = disk.Load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(s2->shard(0)));
  EXPECT_GT(disk.corrupt_tails_ignored(), 0);
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

TEST(PersistentShardStoreTest, CorruptRecordRollsBackAndRedownloadHeals) {
  // The failover-resume sequence: a replacement worker adopts a store
  // whose delta log was damaged mid-record (not just a truncated tail).
  // The log replay must roll back to the base, surface the STALE
  // fingerprint — which the coordinator's Assign/Resume diff turns into
  // a re-download of that one slice — and the subsequent Put must heal
  // the store back to the current content.
  const CsrGraph g1 = SmallWorldConverted(600, 3);
  const CsrGraph g2 = SmallWorldConverted(600, 4);
  auto s1 = ShardedGraphStore::Build(g1, 1);
  auto s2 = ShardedGraphStore::Build(g2, 1);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const std::string dir = FreshDir("spsb_failover");
  {
    PersistentShardStore disk(dir);
    ASSERT_TRUE(disk.Put(0, SliceBytes(s1->shard(0))).ok());
    ASSERT_TRUE(disk.Put(0, SliceBytes(s2->shard(0))).ok());  // record 0
  }

  // Flip a byte inside the record body (past the log header), corrupting
  // the record itself rather than appending a torn tail.
  {
    std::FILE* f = std::fopen((dir + "/shard_0.dlog").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    std::fputc(byte ^ 0x5a, f);
    std::fclose(f);
  }

  // A fresh store instance (the replacement worker) replays the log: the
  // corrupt record is ignored and the slice rolls back to the base — the
  // fingerprint is v1's, NOT v2's, so a coordinator expecting v2 would
  // re-download. Never an error, never a wedge.
  PersistentShardStore replacement(dir);
  auto loaded = replacement.Load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(s1->shard(0)));
  EXPECT_NE(loaded->fingerprint, ShardSliceFingerprint(s2->shard(0)));
  EXPECT_GT(replacement.corrupt_tails_ignored(), 0);

  // The re-download (a Put of the authoritative bytes) heals the store.
  ASSERT_TRUE(replacement.Put(0, SliceBytes(s2->shard(0))).ok());
  auto healed = replacement.Load(0);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->fingerprint, ShardSliceFingerprint(s2->shard(0)));
  EXPECT_EQ(healed->shard.targets, s2->shard(0).targets);
}

TEST(PersistentShardStoreTest, LogBoundToADifferentBaseIsRejectedWhole) {
  // A replacement worker may inherit a base freshly re-downloaded after
  // the old base was lost, plus a delta log still bound to the OLD base.
  // The whole log must be rejected (fingerprint binding), leaving the
  // new base's content — not a replay of records onto the wrong base.
  const CsrGraph g1 = SmallWorldConverted(600, 3);
  const CsrGraph g2 = SmallWorldConverted(600, 4);
  const CsrGraph g3 = SmallWorldConverted(600, 5);
  auto s1 = ShardedGraphStore::Build(g1, 1);
  auto s2 = ShardedGraphStore::Build(g2, 1);
  auto s3 = ShardedGraphStore::Build(g3, 1);
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  const std::string dir_old = FreshDir("spsb_rebind_old");
  {
    PersistentShardStore disk(dir_old);
    ASSERT_TRUE(disk.Put(0, SliceBytes(s1->shard(0))).ok());
    ASSERT_TRUE(disk.Put(0, SliceBytes(s2->shard(0))).ok());  // log record
  }
  const std::string dir = FreshDir("spsb_rebind");
  {
    PersistentShardStore disk(dir);
    ASSERT_TRUE(disk.Put(0, SliceBytes(s3->shard(0))).ok());  // fresh base
  }
  // Splice the OLD store's delta log (bound to v1's base) next to the new
  // v3 base — a partial restore from backup does exactly this.
  std::filesystem::copy_file(
      dir_old + "/shard_0.dlog", dir + "/shard_0.dlog",
      std::filesystem::copy_options::overwrite_existing);

  PersistentShardStore replacement(dir);
  auto loaded = replacement.Load(0);
  ASSERT_TRUE(loaded.has_value());
  // The stale log must not replay its v2 record onto v3's base.
  EXPECT_EQ(loaded->fingerprint, ShardSliceFingerprint(s3->shard(0)));
  EXPECT_GT(replacement.corrupt_tails_ignored(), 0);
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
