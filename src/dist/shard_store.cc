#include "dist/shard_store.h"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "common/base_log.h"
#include "common/fnv.h"
#include "common/string_util.h"
#include "graph/binary_io.h"

namespace spinner::dist {

namespace {

/// The file's magic "SPSB" and version u32 (2, little-endian). Version 2
/// holds SPSL version 2 slices (u32 targets, u8 weights); a version 1
/// file reads as absent, so its shard is re-downloaded.
constexpr char kBaseHeader[8] = {'S', 'P', 'S', 'B', 2, 0, 0, 0};

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

std::string PersistentShardStore::BasePath(int32_t shard_id) const {
  return StrFormat("%s/shard_%d.base", root_.c_str(), shard_id);
}

std::optional<PersistentShardStore::LoadedSlice> PersistentShardStore::Load(
    int32_t shard_id) const {
  // magic | version | slice bytes | fnv(slice bytes). A missing,
  // unreadable, torn or foreign file is a miss, never an error.
  auto file = ReadFileBytes(BasePath(shard_id));
  if (!file.ok() || file->size() < sizeof(kBaseHeader) + sizeof(uint64_t) ||
      std::memcmp(file->data(), kBaseHeader, sizeof(kBaseHeader)) != 0) {
    return std::nullopt;
  }
  const std::span<const uint8_t> slice(
      file->data() + sizeof(kBaseHeader),
      file->size() - sizeof(kBaseHeader) - sizeof(uint64_t));
  uint64_t fnv = 0;
  std::memcpy(&fnv, slice.data() + slice.size(), sizeof(fnv));
  if (fnv != ChecksumBytes(slice)) return std::nullopt;
  size_t consumed = 0;
  auto shard = graph_io::DecodeShardSlice(slice, &consumed);
  // Bytes that checksum but do not decode whole are foreign content.
  if (!shard.ok() || consumed != slice.size()) return std::nullopt;
  return LoadedSlice{std::move(*shard), fnv};
}

Status PersistentShardStore::Put(int32_t shard_id,
                                 std::span<const uint8_t> slice_bytes) const {
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot create shard store root %s: %s",
                                     root_.c_str(), ec.message().c_str()));
  }
  const uint64_t fnv = ChecksumBytes(slice_bytes);
  return ReplaceFile(BasePath(shard_id), [&](std::ostream& out) {
    out.write(kBaseHeader, sizeof(kBaseHeader));
    out.write(reinterpret_cast<const char*>(slice_bytes.data()),
              static_cast<std::streamsize>(slice_bytes.size()));
    out.write(reinterpret_cast<const char*>(&fnv), sizeof(fnv));
  });
}

}  // namespace spinner::dist
