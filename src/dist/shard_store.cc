#include "dist/shard_store.h"

#include <sys/stat.h>

#include <cstring>
#include <utility>

#include "common/base_log.h"
#include "common/fnv.h"
#include "common/string_util.h"
#include "graph/binary_io.h"

namespace spinner::dist {

namespace {

constexpr char kLogMagic[4] = {'S', 'P', 'S', 'D'};
/// Version 2 holds SPSL version 2 slices (u32 targets, u8 weights). A
/// version 1 base or log reads as absent, so its shard is re-downloaded.
constexpr uint32_t kStoreVersion = 2;
/// The base's magic "SPSB" and version u32 (kStoreVersion, little-endian).
constexpr char kBaseHeader[8] = {'S', 'P', 'S', 'B', 2, 0, 0, 0};
static_assert(kBaseHeader[4] == kStoreVersion);

}  // namespace

uint64_t ShardSliceFingerprint(std::span<const uint8_t> slice_bytes) {
  return ChecksumBytes(slice_bytes);
}

uint64_t ShardSliceFingerprint(const ShardedGraphStore::Shard& shard) {
  uint64_t digest = kFnvOffsetBasis;
  graph_io::ForEachShardSlicePiece(
      shard, [&digest](std::span<const uint8_t> piece) {
        digest = ChecksumFold(digest, piece);
      });
  return digest;
}

PersistentShardStore::PersistentShardStore(std::string root, Options options)
    : root_(std::move(root)), options_(options) {
  if (options_.compact_after_records < 1) options_.compact_after_records = 1;
}

std::string PersistentShardStore::BasePath(int32_t shard_id) const {
  return StrFormat("%s/shard_%d.base", root_.c_str(), shard_id);
}

std::string PersistentShardStore::LogPath(int32_t shard_id) const {
  return StrFormat("%s/shard_%d.dlog", root_.c_str(), shard_id);
}

std::optional<std::vector<uint8_t>> PersistentShardStore::CurrentBytes(
    int32_t shard_id, int64_t* records_out) {
  *records_out = 0;
  // Base: magic | version | slice bytes | fnv(slice bytes). A missing,
  // unreadable, torn or rewritten base is unusable, and so is any log
  // bound to it: report absent and the coordinator re-downloads.
  auto base_file = ReadFileBytes(BasePath(shard_id));
  if (!base_file.ok() ||
      base_file->size() < sizeof(kBaseHeader) + sizeof(uint64_t) ||
      std::memcmp(base_file->data(), kBaseHeader, sizeof(kBaseHeader)) != 0) {
    return std::nullopt;
  }
  const std::span<const uint8_t> slice(
      base_file->data() + sizeof(kBaseHeader),
      base_file->size() - sizeof(kBaseHeader) - sizeof(uint64_t));
  uint64_t base_fnv = 0;
  std::memcpy(&base_fnv, slice.data() + slice.size(), sizeof(base_fnv));
  if (base_fnv != ChecksumBytes(slice)) return std::nullopt;

  // Log: valid records replace the slice wholesale, last one wins. A
  // damaged tail rolls back to the last valid record (crash-tail
  // tolerance); an unreadable log, or one bound to a different base (the
  // base was replaced out from under it), is ignored whole.
  std::span<const uint8_t> current = slice;
  auto log_file = ReadFileBytes(LogPath(shard_id));
  if (log_file.ok()) {
    auto log = ParseLog(*log_file, kLogMagic, kStoreVersion);
    if (log.ok() && log->base_fnv == base_fnv) {
      if (!log->records.empty()) current = log->records.back();
      *records_out = static_cast<int64_t>(log->records.size());
      if (!log->tail.ok()) ++corrupt_tails_ignored_;
    } else {
      ++corrupt_tails_ignored_;
    }
  } else if (log_file.status().code() != StatusCode::kNotFound) {
    ++corrupt_tails_ignored_;
  }
  return std::vector<uint8_t>(current.begin(), current.end());
}

std::optional<PersistentShardStore::LoadedSlice> PersistentShardStore::Load(
    int32_t shard_id) {
  int64_t records = 0;
  const auto bytes = CurrentBytes(shard_id, &records);
  if (!bytes.has_value()) return std::nullopt;
  size_t consumed = 0;
  auto shard = graph_io::DecodeShardSlice(*bytes, &consumed);
  if (!shard.ok() || consumed != bytes->size()) {
    // The stored bytes checksummed but do not decode (foreign content or
    // partial write that happened to checksum): treat as absent.
    return std::nullopt;
  }
  LoadedSlice loaded;
  loaded.shard = std::move(*shard);
  loaded.fingerprint = ChecksumBytes(*bytes);
  return loaded;
}

Status PersistentShardStore::WriteBase(int32_t shard_id,
                                       std::span<const uint8_t> slice_bytes) {
  const uint64_t fnv = ChecksumBytes(slice_bytes);
  SPINNER_RETURN_IF_ERROR(
      ReplaceFile(BasePath(shard_id), [&](std::ostream& out) {
        out.write(kBaseHeader, sizeof(kBaseHeader));
        out.write(reinterpret_cast<const char*>(slice_bytes.data()),
                  static_cast<std::streamsize>(slice_bytes.size()));
        out.write(reinterpret_cast<const char*>(&fnv), sizeof(fnv));
      }));
  // Then rebind the log: an interrupted sequence leaves either the old
  // base with its old log or the new base with a log bound to the old
  // fingerprint (which Load ignores) — never a torn base.
  SPINNER_RETURN_IF_ERROR(
      CreateLog(LogPath(shard_id), kLogMagic, kStoreVersion, fnv));
  ++bases_written_;
  return Status::OK();
}

Status PersistentShardStore::Put(int32_t shard_id,
                                 std::span<const uint8_t> slice_bytes) {
  if (!root_created_) {
    // Best-effort single-level mkdir; a failure surfaces as the open
    // error below with the path in the message.
    (void)mkdir(root_.c_str(), 0777);
    root_created_ = true;
  }
  int64_t records = 0;
  const int64_t corrupt_before = corrupt_tails_ignored_;
  const auto current = CurrentBytes(shard_id, &records);
  const bool log_damaged = corrupt_tails_ignored_ > corrupt_before;
  if (current.has_value() && !log_damaged &&
      ChecksumBytes(*current) == ChecksumBytes(slice_bytes)) {
    return Status::OK();  // already hosting exactly these bytes
  }
  // A damaged log forces a fresh base: appending after garbage would put
  // the new record where replay never reaches (it stops at the first
  // invalid record), leaving the store permanently stale.
  if (!current.has_value() || log_damaged ||
      records + 1 >= options_.compact_after_records) {
    if (current.has_value()) ++compactions_;
    return WriteBase(shard_id, slice_bytes);
  }
  SPINNER_RETURN_IF_ERROR(AppendLogRecord(LogPath(shard_id), slice_bytes));
  ++records_appended_;
  return Status::OK();
}

}  // namespace spinner::dist
