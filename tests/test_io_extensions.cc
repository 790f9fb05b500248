// Id remapping and the SPNS session snapshot format, including corruption
// paths — plus the delta-log record codec and incremental (base +
// delta-log) checkpoint equivalence with full snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/base_log.h"
#include "common/fnv.h"
#include "graph/binary_io.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/remap.h"
#include "spinner/session.h"
#include "stream/checkpoint_log.h"

namespace spinner {
namespace {

TEST(CompactVertexIdsTest, DensifiesSparseIds) {
  EdgeList edges = {{100, 7}, {7, 100000}, {100000, 100}};
  auto mapping = CompactVertexIds(&edges);
  ASSERT_EQ(mapping.num_vertices(), 3);
  // Dense ids assigned by ascending original id: 7→0, 100→1, 100000→2.
  EXPECT_EQ(mapping.original_id, (std::vector<VertexId>{7, 100, 100000}));
  EXPECT_EQ(edges, (EdgeList{{1, 0}, {0, 2}, {2, 1}}));
}

TEST(CompactVertexIdsTest, AlreadyDenseIsIdentity) {
  EdgeList edges = {{0, 1}, {1, 2}};
  auto mapping = CompactVertexIds(&edges);
  EXPECT_EQ(mapping.num_vertices(), 3);
  EXPECT_EQ(edges, (EdgeList{{0, 1}, {1, 2}}));
}

TEST(CompactVertexIdsTest, EmptyEdgeList) {
  EdgeList edges;
  auto mapping = CompactVertexIds(&edges);
  EXPECT_EQ(mapping.num_vertices(), 0);
}

TEST(MapToOriginalIdsTest, RoundTripsAssignments) {
  EdgeList edges = {{50, 10}, {10, 90}};
  auto mapping = CompactVertexIds(&edges);
  // Dense: 10→0, 50→1, 90→2.
  const std::vector<PartitionId> assignment = {2, 0, 1};
  auto pairs = MapToOriginalIds(mapping, assignment);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<VertexId, PartitionId>{10, 2}));
  EXPECT_EQ(pairs[1], (std::pair<VertexId, PartitionId>{50, 0}));
  EXPECT_EQ(pairs[2], (std::pair<VertexId, PartitionId>{90, 1}));
}

class BinaryIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(BinaryIoTest, EmptyGraphRoundTrip) {
  const std::string path = TempPath("empty.spns");
  ASSERT_TRUE(graph_io::WriteSessionSnapshot(path, {}).ok());
  auto read = graph_io::ReadSessionSnapshot(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_vertices, 0);
  EXPECT_TRUE(read->edges.empty());
  EXPECT_EQ(read->num_partitions, 0);
  std::remove(path.c_str());
}

TEST_F(BinaryIoTest, WriteRejectsOutOfRangeEdges) {
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = 2;
  snapshot.edges = {{0, 5}};
  EXPECT_FALSE(
      graph_io::WriteSessionSnapshot(TempPath("x.spns"), snapshot).ok());
  snapshot.num_vertices = -1;
  snapshot.edges.clear();
  EXPECT_FALSE(
      graph_io::WriteSessionSnapshot(TempPath("x.spns"), snapshot).ok());
}

TEST_F(BinaryIoTest, MissingFileIsIOError) {
  auto read = graph_io::ReadSessionSnapshot("/nonexistent/g.spns");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST_F(BinaryIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.spns");
  std::ofstream(path, std::ios::binary) << "NOPE garbage";
  auto read = graph_io::ReadSessionSnapshot(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(BinaryIoTest, TruncatedFileRejected) {
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = 3;
  snapshot.edges = {{0, 1}, {1, 2}};
  const std::string path = TempPath("trunc.spns");
  ASSERT_TRUE(graph_io::WriteSessionSnapshot(path, snapshot).ok());
  // Chop the last 8 bytes off (half of the last edge).
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() - 8));
  out.close();
  auto read = graph_io::ReadSessionSnapshot(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST_F(BinaryIoTest, SessionSnapshotRoundTrip) {
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = 4;
  snapshot.edges = {{0, 1}, {1, 2}, {2, 3}};
  snapshot.directed = true;
  snapshot.num_partitions = 2;
  snapshot.assignment = {0, 0, 1, 1};
  const std::string path = TempPath("session.spns");
  ASSERT_TRUE(graph_io::WriteSessionSnapshot(path, snapshot).ok());
  auto read = graph_io::ReadSessionSnapshot(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_vertices, 4);
  EXPECT_EQ(read->edges, snapshot.edges);
  EXPECT_TRUE(read->directed);
  EXPECT_EQ(read->num_partitions, 2);
  EXPECT_EQ(read->assignment, snapshot.assignment);
  std::remove(path.c_str());
}

TEST_F(BinaryIoTest, SessionSnapshotRejectsInconsistentAssignment) {
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = 3;
  snapshot.edges = {{0, 1}};
  snapshot.num_partitions = 2;
  snapshot.assignment = {0, 1};  // covers 2 of 3 vertices
  EXPECT_FALSE(
      graph_io::WriteSessionSnapshot(TempPath("bad1.spns"), snapshot).ok());
  snapshot.assignment = {0, 1, 2};  // label 2 out of range for k=2
  EXPECT_FALSE(
      graph_io::WriteSessionSnapshot(TempPath("bad2.spns"), snapshot).ok());
}

TEST_F(BinaryIoTest, CorruptEdgeRangeRejected) {
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = 3;
  snapshot.edges = {{0, 1}};
  const std::string path = TempPath("corrupt_edge.spns");
  ASSERT_TRUE(graph_io::WriteSessionSnapshot(path, snapshot).ok());
  // Overwrite the edge target with an out-of-range id (offset: 4 magic +
  // 4 version + 8 n + 8 m + 4 k + 4 flags + 8 src = 40).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(40);
  const int64_t bogus = 999;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  auto read = graph_io::ReadSessionSnapshot(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- Delta-log record codec ----------------------------------------------

TEST(DeltaLogRecordTest, RoundTripsConsecutiveRecords) {
  graph_io::DeltaLogRecord first;
  first.delta = GraphDelta{}.AddVertex(2).AddEdge(0, 5).RemoveEdge(1, 2);
  first.new_k = 4;
  first.label_updates = {{0, 3}, {4, 1}, {5, 0}};
  graph_io::DeltaLogRecord second;
  second.new_k = 7;  // a pure rescale: empty delta, relabeled vertices
  second.label_updates = {{2, 6}};

  std::vector<uint8_t> bytes;
  graph_io::AppendDeltaLogRecord(first, &bytes);
  const size_t first_size = bytes.size();
  graph_io::AppendDeltaLogRecord(second, &bytes);

  size_t pos = 0;
  auto decoded = graph_io::DecodeDeltaLogRecord(bytes, &pos);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(pos, first_size);
  EXPECT_EQ(decoded->delta.num_new_vertices, 2);
  EXPECT_EQ(decoded->delta.added_edges, (EdgeList{{0, 5}}));
  EXPECT_EQ(decoded->delta.removed_edges, (EdgeList{{1, 2}}));
  EXPECT_EQ(decoded->new_k, 4);
  EXPECT_EQ(decoded->label_updates, first.label_updates);

  auto next = graph_io::DecodeDeltaLogRecord(bytes, &pos);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(next->new_k, 7);
  EXPECT_TRUE(next->delta.added_edges.empty());
  EXPECT_EQ(next->label_updates, second.label_updates);
}

TEST(DeltaLogRecordTest, TruncationIsIOErrorBadMagicIsInvalidArgument) {
  graph_io::DeltaLogRecord record;
  record.delta = GraphDelta{}.AddEdge(0, 1);
  record.new_k = 2;
  record.label_updates = {{1, 1}};
  std::vector<uint8_t> bytes;
  graph_io::AppendDeltaLogRecord(record, &bytes);

  for (size_t keep : {size_t{0}, size_t{2}, bytes.size() / 2,
                      bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    size_t pos = 0;
    auto decoded = graph_io::DecodeDeltaLogRecord(cut, &pos);
    ASSERT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  }

  bytes[0] = 'X';  // not SPDR
  size_t pos = 0;
  auto decoded = graph_io::DecodeDeltaLogRecord(bytes, &pos);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// --- Incremental checkpoint equivalence ----------------------------------

class IncrementalCheckpointTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  /// Registers a base path (and its .dlog) for removal.
  std::string Register(const std::string& path) {
    cleanup_.push_back(path);
    cleanup_.push_back(path + ".dlog");
    return path;
  }

  static SpinnerConfig Config(int k = 4) {
    SpinnerConfig config;
    config.num_partitions = k;
    config.execution.num_shards = 2;
    return config;
  }

  /// A session over a small-world graph, plus a scripted stream of deltas
  /// checkpointed through `checkpointer` after each apply.
  static void Stream(PartitioningSession* session,
                     stream::IncrementalCheckpointer* checkpointer,
                     int num_deltas, uint64_t seed) {
    for (int i = 0; i < num_deltas; ++i) {
      GraphDelta delta = RandomEdgeAdditions(
          session->num_vertices(), session->edges(), 4, seed + 10 * i);
      if (i % 3 == 1) delta.AddVertex(2).AddEdge(0, session->num_vertices());
      ASSERT_TRUE(session->ApplyDelta(delta).ok());
      ASSERT_TRUE(checkpointer->Append(*session, delta).ok());
    }
  }

  static int64_t FileSize(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    SPINNER_CHECK(static_cast<bool>(in));
    return static_cast<int64_t>(in.tellg());
  }

  std::vector<std::string> cleanup_;
};

TEST_F(IncrementalCheckpointTest, BasePlusLogRestoreIsByteIdenticalToFull) {
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("incr.spns"));
  stream::IncrementalCheckpointer checkpointer(base);
  ASSERT_TRUE(checkpointer.WriteBase(session).ok());
  Stream(&session, &checkpointer, /*num_deltas=*/6, /*seed=*/21);
  ASSERT_TRUE(session.Rescale(6).ok());
  ASSERT_TRUE(checkpointer.Append(session, GraphDelta{}).ok());
  EXPECT_EQ(checkpointer.records_since_base(), 7);
  EXPECT_EQ(checkpointer.bases_written(), 1);

  // Replaying base+log and re-serializing must produce the exact bytes of
  // a full Snapshot taken now — not merely an equivalent state.
  auto replayed = stream::IncrementalCheckpointer::Load(base);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  const std::string replay_path = Register(TempPath("replayed.spns"));
  ASSERT_TRUE(
      graph_io::WriteSessionSnapshot(replay_path, *replayed).ok());
  const std::string full_path = Register(TempPath("full.spns"));
  ASSERT_TRUE(session.Snapshot(full_path).ok());

  std::ifstream replay_in(replay_path, std::ios::binary);
  std::ifstream full_in(full_path, std::ios::binary);
  const std::vector<char> replay_bytes(
      (std::istreambuf_iterator<char>(replay_in)),
      std::istreambuf_iterator<char>());
  const std::vector<char> full_bytes(
      (std::istreambuf_iterator<char>(full_in)),
      std::istreambuf_iterator<char>());
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_EQ(replay_bytes, full_bytes);

  // And RestoreSession lands a fresh session on the same state.
  PartitioningSession restored(Config());
  ASSERT_TRUE(stream::IncrementalCheckpointer::RestoreSession(
                  base, &restored)
                  .ok());
  EXPECT_EQ(restored.num_vertices(), session.num_vertices());
  EXPECT_EQ(restored.num_partitions(), 6);
  EXPECT_EQ(restored.assignment(), session.assignment());
  EXPECT_EQ(restored.edges(), session.edges());
}

TEST_F(IncrementalCheckpointTest, AppendCostIsODeltaNotOEdges) {
  // The whole point of the delta log: checkpointing a 4-edge delta on a
  // ~12k-edge graph must cost bytes proportional to the delta (plus the
  // moved labels), nowhere near the O(E) base image.
  auto g = WattsStrogatz(4000, 3, 0.3, /*seed=*/5);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config(8));
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("cost.spns"));
  stream::IncrementalCheckpointer checkpointer(base);
  ASSERT_TRUE(checkpointer.WriteBase(session).ok());
  const int64_t base_size = FileSize(base);
  const int64_t log_header_size = FileSize(checkpointer.log_path());

  GraphDelta delta = RandomEdgeAdditions(session.num_vertices(),
                                         session.edges(), 4, /*seed=*/31);
  ASSERT_TRUE(session.ApplyDelta(delta).ok());
  ASSERT_TRUE(checkpointer.Append(session, delta).ok());
  const int64_t record_size =
      FileSize(checkpointer.log_path()) - log_header_size;

  EXPECT_GT(record_size, 0);
  // A full snapshot re-serializes every edge; the record must be far
  // smaller — an order of magnitude is a loose floor, the typical ratio
  // here is ~100x.
  EXPECT_LT(record_size, base_size / 10);
  EXPECT_EQ(FileSize(base), base_size);  // the base was not rewritten
}

TEST_F(IncrementalCheckpointTest, CompactionFoldsLogIntoAFreshBase) {
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("compact.spns"));
  stream::IncrementalCheckpointer::Options options;
  options.compact_after_records = 3;
  stream::IncrementalCheckpointer checkpointer(base, options);
  Stream(&session, &checkpointer, /*num_deltas=*/8, /*seed=*/41);

  // 8 appends at threshold 3: base (first append), 3 records, compaction
  // base, 3 records, then another record.
  EXPECT_EQ(checkpointer.bases_written(), 2);
  EXPECT_EQ(checkpointer.records_since_base(), 3);

  PartitioningSession restored(Config());
  ASSERT_TRUE(stream::IncrementalCheckpointer::RestoreSession(
                  base, &restored)
                  .ok());
  EXPECT_EQ(restored.assignment(), session.assignment());
  EXPECT_EQ(restored.edges(), session.edges());
  EXPECT_EQ(restored.num_vertices(), session.num_vertices());
}

TEST_F(IncrementalCheckpointTest, LogIsBoundToTheChecksumOfTheBaseFile) {
  // WriteBase fingerprints the base as it streams out; the digest it binds
  // the log to must be the checksum of the file as it lies on disk, for
  // the first base and for a compaction's.
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("bound.spns"));
  stream::IncrementalCheckpointer::Options options;
  options.compact_after_records = 2;
  stream::IncrementalCheckpointer checkpointer(base, options);
  for (int round = 0; round < 2; ++round) {
    if (round == 0) {
      ASSERT_TRUE(checkpointer.WriteBase(session).ok());
    } else {
      Stream(&session, &checkpointer, /*num_deltas=*/3, /*seed=*/53);
      ASSERT_EQ(checkpointer.bases_written(), 2);
    }
    auto base_bytes = ReadFileBytes(base);
    ASSERT_TRUE(base_bytes.ok()) << base_bytes.status();
    auto log_bytes = ReadFileBytes(base + ".dlog");
    ASSERT_TRUE(log_bytes.ok()) << log_bytes.status();
    auto log = ParseLog(*log_bytes, {'S', 'P', 'D', 'G'}, 2);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(log->base_fnv, ChecksumBytes(*base_bytes)) << "round " << round;

    // The in-memory decoder and the streamed file reader agree.
    auto decoded = graph_io::DecodeSessionSnapshot(*base_bytes);
    auto read = graph_io::ReadSessionSnapshot(base);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(decoded->edges, read->edges);
    EXPECT_EQ(decoded->assignment, read->assignment);
    EXPECT_EQ(decoded->num_vertices, read->num_vertices);
  }
  auto loaded = stream::IncrementalCheckpointer::Load(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->assignment, session.assignment());
}

TEST_F(IncrementalCheckpointTest, TruncatedLogTailIsRejectedCleanly) {
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("trunc.spns"));
  stream::IncrementalCheckpointer checkpointer(base);
  ASSERT_TRUE(checkpointer.WriteBase(session).ok());
  Stream(&session, &checkpointer, /*num_deltas=*/3, /*seed=*/51);
  ASSERT_TRUE(stream::IncrementalCheckpointer::Load(base).ok());

  // A crash mid-append leaves a torn record at the tail.
  const std::string log = checkpointer.log_path();
  const int64_t full_size = FileSize(log);
  std::filesystem::resize_file(log, static_cast<uintmax_t>(full_size - 5));
  auto torn = stream::IncrementalCheckpointer::Load(base);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kIOError);
}

TEST_F(IncrementalCheckpointTest, CorruptRecordByteFailsTheChecksum) {
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("corrupt.spns"));
  stream::IncrementalCheckpointer checkpointer(base);
  ASSERT_TRUE(checkpointer.WriteBase(session).ok());
  Stream(&session, &checkpointer, /*num_deltas=*/2, /*seed=*/61);

  const std::string log = checkpointer.log_path();
  const int64_t size = FileSize(log);
  std::fstream f(log, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(size - 12);  // inside the last record's payload
  const char bogus = '\xee';
  f.write(&bogus, 1);
  f.close();
  auto corrupt = stream::IncrementalCheckpointer::Load(base);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IncrementalCheckpointTest, LogBoundToADifferentBaseIsRejected) {
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("rebased.spns"));
  stream::IncrementalCheckpointer checkpointer(base);
  ASSERT_TRUE(checkpointer.WriteBase(session).ok());
  Stream(&session, &checkpointer, /*num_deltas=*/2, /*seed=*/71);

  // Overwrite the base image out-of-band (as a concurrent full Snapshot
  // to the same path would): the log's fingerprint no longer matches.
  ASSERT_TRUE(session.Snapshot(base).ok());
  auto mismatched = stream::IncrementalCheckpointer::Load(base);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IncrementalCheckpointTest, DirectoryAtLogPathIsAnIOError) {
  // Only a missing log means "bare base"; a log path that cannot be read
  // as a file must fail the load instead of restoring a stale state.
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("dirlog.spns"));
  ASSERT_TRUE(session.Snapshot(base).ok());
  std::filesystem::remove_all(base + ".dlog");
  ASSERT_TRUE(std::filesystem::create_directory(base + ".dlog"));
  auto loaded = stream::IncrementalCheckpointer::Load(base);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(IncrementalCheckpointTest, MissingLogRestoresTheBareBase) {
  auto g = WattsStrogatz(400, 3, 0.3, /*seed=*/9);
  ASSERT_TRUE(g.ok());
  PartitioningSession session(Config());
  ASSERT_TRUE(session.Open(g->num_vertices, g->edges, g->directed).ok());

  const std::string base = Register(TempPath("bare.spns"));
  ASSERT_TRUE(session.Snapshot(base).ok());  // a plain snapshot, no log
  auto loaded = stream::IncrementalCheckpointer::Load(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->assignment, session.assignment());
}

}  // namespace
}  // namespace spinner
