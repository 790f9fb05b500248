// The base-plus-log file layer (common/base_log.h): a log torn at any byte
// yields exactly its complete records, a damaged record is never returned,
// ReplaceFile leaves the old file whole when a write fails, replaces the
// file a symlink names, and writes a target that is not a regular file in
// place.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/base_log.h"
#include "dist/shard_store.h"
#include "graph/binary_io.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/sharded_store.h"

namespace spinner {
namespace {

constexpr char kMagic[4] = {'T', 'L', 'O', 'G'};
constexpr uint32_t kVersion = 7;
constexpr uint64_t kBaseFnv = 0x0123456789abcdefull;
constexpr size_t kHeaderSize = 16;  // magic | version u32 | base_fnv u64
constexpr size_t kFrameSize = 16;   // size u64 before, fnv u64 after

std::string FreshPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::remove(path + ".tmp");
  return path;
}

/// Three records of different sizes, one of them empty.
std::vector<std::vector<uint8_t>> Records() {
  std::vector<std::vector<uint8_t>> records = {std::vector<uint8_t>(13),
                                               {},
                                               std::vector<uint8_t>(40)};
  for (size_t r = 0; r < records.size(); ++r) {
    for (size_t i = 0; i < records[r].size(); ++i) {
      records[r][i] = static_cast<uint8_t>(31 * r + 7 * i + 1);
    }
  }
  return records;
}

/// Writes the three-record log through CreateLog/AppendLogRecord and
/// returns its bytes.
std::vector<uint8_t> ThreeRecordLog(const std::string& name) {
  const std::string path = FreshPath(name);
  SPINNER_CHECK_OK(CreateLog(path, kMagic, kVersion, kBaseFnv));
  for (const auto& record : Records()) {
    SPINNER_CHECK_OK(AppendLogRecord(path, record));
  }
  auto bytes = ReadFileBytes(path);
  SPINNER_CHECK(bytes.ok());
  return std::move(bytes).value();
}

bool SameBytes(std::span<const uint8_t> a, const std::vector<uint8_t>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(BaseLogTest, EveryPrefixYieldsExactlyItsCompleteRecords) {
  const auto records = Records();
  const std::vector<uint8_t> bytes = ThreeRecordLog("base_log_prefix.log");
  std::vector<size_t> record_ends;
  size_t end = kHeaderSize;
  for (const auto& record : records) {
    end += kFrameSize + record.size();
    record_ends.push_back(end);
  }
  ASSERT_EQ(bytes.size(), record_ends.back());

  for (size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE(len);
    auto log = ParseLog(std::span(bytes.data(), len), kMagic, kVersion);
    if (len < kHeaderSize) {
      ASSERT_FALSE(log.ok());
      EXPECT_EQ(log.status().code(), StatusCode::kIOError);
      continue;
    }
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(log->base_fnv, kBaseFnv);
    const auto complete = static_cast<size_t>(std::count_if(
        record_ends.begin(), record_ends.end(),
        [len](size_t record_end) { return record_end <= len; }));
    ASSERT_EQ(log->records.size(), complete);
    for (size_t r = 0; r < complete; ++r) {
      EXPECT_TRUE(SameBytes(log->records[r], records[r]));
    }
    const bool at_boundary =
        len == kHeaderSize ||
        std::find(record_ends.begin(), record_ends.end(), len) !=
            record_ends.end();
    if (at_boundary) {
      EXPECT_TRUE(log->tail.ok()) << log->tail;
    } else {
      EXPECT_EQ(log->tail.code(), StatusCode::kIOError);
    }
  }
}

TEST(BaseLogTest, FlippedByteInTheLastRecordIsNeverReturned) {
  const auto records = Records();
  const std::vector<uint8_t> bytes = ThreeRecordLog("base_log_flip.log");
  const size_t last_begin =
      bytes.size() - kFrameSize - records.back().size();
  for (size_t pos = last_begin; pos < bytes.size(); ++pos) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0xff}}) {
      SCOPED_TRACE(testing::Message() << "byte " << pos << " ^ "
                                      << static_cast<int>(mask));
      std::vector<uint8_t> flipped = bytes;
      flipped[pos] ^= mask;
      auto log = ParseLog(flipped, kMagic, kVersion);
      ASSERT_TRUE(log.ok()) << log.status();
      ASSERT_EQ(log->records.size(), 2u);
      EXPECT_TRUE(SameBytes(log->records[0], records[0]));
      EXPECT_TRUE(SameBytes(log->records[1], records[1]));
      EXPECT_TRUE(log->tail.code() == StatusCode::kInvalidArgument ||
                  log->tail.code() == StatusCode::kIOError)
          << log->tail;
    }
  }
}

TEST(BaseLogTest, ForeignMagicOrVersionIsRejected) {
  const std::vector<uint8_t> bytes = ThreeRecordLog("base_log_header.log");
  constexpr char kOtherMagic[4] = {'T', 'L', 'O', 'H'};
  EXPECT_EQ(ParseLog(bytes, kOtherMagic, kVersion).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseLog(bytes, kMagic, kVersion + 1).status().code(),
            StatusCode::kInvalidArgument);
}

/// Runs `write` in a forked child whose files cannot grow past `limit`
/// bytes, with SIGXFSZ ignored so an oversized write fails with EFBIG
/// instead of killing the child. True when `write` returned IOError.
bool FailsWithIOErrorUnderFileSizeLimit(rlim_t limit,
                                        const std::function<Status()>& write) {
  const pid_t pid = fork();
  SPINNER_CHECK(pid >= 0);
  if (pid == 0) {
    signal(SIGXFSZ, SIG_IGN);
    const rlimit rl{limit, limit};
    if (setrlimit(RLIMIT_FSIZE, &rl) != 0) _exit(2);
    _exit(write().code() == StatusCode::kIOError ? 0 : 1);
  }
  int wstatus = 0;
  SPINNER_CHECK(waitpid(pid, &wstatus, 0) == pid);
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  SPINNER_CHECK(bytes.ok());
  return std::move(bytes).value();
}

TEST(BaseLogTest, FailedSnapshotWriteLeavesTheOldSnapshotWhole) {
  auto snapshot_of = [](uint64_t seed) {
    auto g = WattsStrogatz(2000, 3, 0.3, seed);
    SPINNER_CHECK(g.ok());
    graph_io::SessionSnapshot snapshot;
    snapshot.num_vertices = g->num_vertices;
    snapshot.edges = g->edges;
    return snapshot;
  };
  const std::string path = FreshPath("base_log_replace.spns");
  ASSERT_TRUE(graph_io::WriteSessionSnapshot(path, snapshot_of(1)).ok());
  const std::vector<uint8_t> before = FileBytes(path);
  ASSERT_GT(before.size(), 4096u);

  const graph_io::SessionSnapshot next = snapshot_of(2);
  EXPECT_TRUE(FailsWithIOErrorUnderFileSizeLimit(
      4096, [&] { return graph_io::WriteSessionSnapshot(path, next); }));
  EXPECT_EQ(FileBytes(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(BaseLogTest, FailedShardBaseWriteLeavesTheOldBaseWhole) {
  auto slice_of = [](uint64_t seed) {
    auto ws = WattsStrogatz(600, 3, 0.3, seed);
    SPINNER_CHECK(ws.ok());
    auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
    SPINNER_CHECK(converted.ok());
    auto store = ShardedGraphStore::Build(*converted, 1);
    SPINNER_CHECK(store.ok());
    std::vector<uint8_t> bytes;
    graph_io::AppendShardSlice(store->shard(0), &bytes);
    return bytes;
  };
  const std::string root = FreshPath("base_log_replace_store");
  dist::PersistentShardStore disk(root);
  const std::vector<uint8_t> first = slice_of(3);
  ASSERT_TRUE(disk.Put(0, first).ok());
  const std::vector<uint8_t> before = FileBytes(disk.BasePath(0));
  ASSERT_GT(before.size(), 4096u);

  const std::vector<uint8_t> second = slice_of(4);
  EXPECT_TRUE(FailsWithIOErrorUnderFileSizeLimit(
      4096, [&] { return disk.Put(0, second); }));
  EXPECT_EQ(FileBytes(disk.BasePath(0)), before);
  EXPECT_FALSE(std::filesystem::exists(disk.BasePath(0) + ".tmp"));
  auto loaded = disk.Load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, dist::ShardSliceFingerprint(first));
}

TEST(BaseLogTest, FailedPartitionWriteLeavesTheOldFileWhole) {
  const std::string path = FreshPath("base_log_replace.part");
  ASSERT_TRUE(
      graph_io::WritePartitioning(path, std::vector<PartitionId>(2000, 1))
          .ok());
  const std::vector<uint8_t> before = FileBytes(path);
  ASSERT_GT(before.size(), 4096u);

  const std::vector<PartitionId> next(4000, 2);
  EXPECT_TRUE(FailsWithIOErrorUnderFileSizeLimit(
      4096, [&] { return graph_io::WritePartitioning(path, next); }));
  EXPECT_EQ(FileBytes(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(BaseLogTest, NonRegularTargetIsWrittenInPlace) {
  // A FIFO (like /dev/stdout) cannot be renamed over: the partition file
  // must flow through it, and it must stay a FIFO.
  const std::string path = FreshPath("base_log_replace.fifo");
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  const pid_t reader = fork();
  ASSERT_GE(reader, 0);
  if (reader == 0) {
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    _exit(text == "0 3\n1 4\n" ? 0 : 1);
  }
  const Status written = graph_io::WritePartitioning(path, {3, 4});
  // A replaced FIFO was never opened for writing: unblock its reader.
  if (!std::filesystem::is_fifo(path)) kill(reader, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(reader, &wstatus, 0), reader);
  EXPECT_TRUE(written.ok()) << written;
  EXPECT_TRUE(std::filesystem::is_fifo(path));
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(BaseLogTest, SymlinkedTargetIsReplacedThroughTheLink) {
  const std::string file = FreshPath("base_log_replace_target.part");
  const std::string link = FreshPath("base_log_replace_link.part");
  ASSERT_TRUE(graph_io::WritePartitioning(file, {0, 0}).ok());
  std::filesystem::create_symlink(file, link);

  ASSERT_TRUE(graph_io::WritePartitioning(link, {3, 4}).ok());
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  const std::vector<uint8_t> bytes = FileBytes(file);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "0 3\n1 4\n");
  EXPECT_FALSE(std::filesystem::exists(link + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

}  // namespace
}  // namespace spinner
