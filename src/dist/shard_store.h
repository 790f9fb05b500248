// PersistentShardStore: worker-side on-disk shard hosting, the piece that
// lets a dial-in worker keep its shard slices across runs (and process
// restarts) instead of re-downloading the graph every time.
//
// Each shard is one file under a root directory (one store may be shared
// by every worker on a host — workers own disjoint shards, so they touch
// disjoint files):
//   shard_<id>.base   magic "SPSB" | version u32 | SPSL slice bytes |
//                     fnv u64 over the slice bytes
// The file is only ever replaced whole (ReplaceFile, common/base_log.h:
// tmp + rename), so a crash mid-write leaves the old slice or the new
// one. Anything missing, torn or foreign loads as absent, and at worst
// the coordinator re-downloads that one slice.
//
// The fingerprint a worker reports in its Resume message is the FNV-1a
// digest of the stored slice bytes; it matches the fingerprint the
// coordinator computes over its own slice iff the hosted slice is
// byte-identical to the coordinator's — the zero-download resume gate.
#ifndef SPINNER_DIST_SHARD_STORE_H_
#define SPINNER_DIST_SHARD_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/result.h"
#include "graph/sharded_store.h"

namespace spinner::dist {

/// FNV-1a digest of a shard's canonical SPSL slice encoding — the resume
/// fingerprint a worker reports in Resume and the coordinator checks. The
/// Shard overload folds the encoding piece by piece, without a copy.
uint64_t ShardSliceFingerprint(std::span<const uint8_t> slice_bytes);
uint64_t ShardSliceFingerprint(const ShardedGraphStore::Shard& shard);

class PersistentShardStore {
 public:
  /// A slice loaded back from disk: the decoded shard plus the
  /// fingerprint of its bytes.
  struct LoadedSlice {
    ShardedGraphStore::Shard shard;
    uint64_t fingerprint = 0;
  };

  /// Hosts shards under `root` (created on first Put). Nothing touches
  /// the filesystem until Put()/Load().
  explicit PersistentShardStore(std::string root) : root_(std::move(root)) {}

  /// Loads shard `id` from its one file. Returns nullopt when the shard
  /// is absent or unusable (missing, torn, checksum mismatch, another
  /// version, not a regular file) — callers treat that as "re-download",
  /// never as fatal.
  std::optional<LoadedSlice> Load(int32_t shard_id) const;

  /// Makes `slice_bytes` (canonical SPSL encoding) the content of shard
  /// `id`: creates the root with its missing parents, then replaces the
  /// shard's file atomically.
  Status Put(int32_t shard_id, std::span<const uint8_t> slice_bytes) const;

  std::string BasePath(int32_t shard_id) const;

 private:
  std::string root_;
};

}  // namespace spinner::dist

#endif  // SPINNER_DIST_SHARD_STORE_H_
