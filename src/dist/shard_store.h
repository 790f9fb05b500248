// PersistentShardStore: worker-side on-disk shard hosting, the piece that
// lets a dial-in worker keep its shard slices across runs (and process
// restarts) instead of re-downloading the graph every time.
//
// Each shard is one base-plus-log pair (common/base_log.h) under a root
// directory (one store may be shared by every worker on a host — workers
// own disjoint shards, so they touch disjoint files):
//   shard_<id>.base   magic "SPSB" | version u32 | SPSL slice bytes |
//                     fnv u64 over the slice bytes
//   shard_<id>.dlog   an "SPSD" log bound to that fnv; each record is a
//                     whole SPSL slice
// A damaged log tail is *ignored* (the slice rolls back to the last valid
// record) rather than fatal — a crash mid-append must never wedge a
// worker; at worst the coordinator re-downloads one slice. Record
// granularity is the whole shard slice: a topology delta rebuilds each
// dirty shard whole (ShardedGraphStore::ApplyDelta), so the natural delta
// unit on the worker side is the replacement slice.
// Put() appends a record while the log is short and folds everything back
// into a fresh base past `compact_after_records` (bounding replay time).
//
// The fingerprint a worker reports in its Resume message is the FNV-1a
// digest of the *current* slice bytes (base + replayed log); it matches
// the fingerprint the coordinator computes over its own slice iff the
// hosted slice is byte-identical to the coordinator's — the zero-download
// resume gate.
#ifndef SPINNER_DIST_SHARD_STORE_H_
#define SPINNER_DIST_SHARD_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

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
  struct Options {
    /// Fold the delta log into a fresh base once it holds this many
    /// records. Replay cost is bounded by compact_after_records slice
    /// decodes; between compactions every Put is one append.
    int64_t compact_after_records = 8;
  };

  /// A slice loaded back from disk: the decoded shard plus the
  /// fingerprint of its current bytes.
  struct LoadedSlice {
    ShardedGraphStore::Shard shard;
    uint64_t fingerprint = 0;
  };

  /// Hosts shards under `root` (created on first Put). Nothing touches
  /// the filesystem until Put()/Load().
  explicit PersistentShardStore(std::string root)
      : PersistentShardStore(std::move(root), Options()) {}
  PersistentShardStore(std::string root, Options options);

  /// Loads shard `id`: base + replayed delta log, last valid record wins.
  /// Returns nullopt when the shard is absent or unusable (missing base,
  /// checksum mismatch, log bound to a different base) — callers treat
  /// that as "re-download", never as fatal. Corrupt log *tails* roll back
  /// to the last valid record and count in corrupt_tails_ignored().
  std::optional<LoadedSlice> Load(int32_t shard_id);

  /// Makes `slice_bytes` (canonical SPSL encoding) the current content of
  /// shard `id`: writes the base when none exists (or compaction is due),
  /// otherwise appends one delta record. Put of bytes whose fingerprint
  /// already matches the current content is a no-op.
  Status Put(int32_t shard_id, std::span<const uint8_t> slice_bytes);

  std::string BasePath(int32_t shard_id) const;
  std::string LogPath(int32_t shard_id) const;

  // Observability for the restart/resume tests.
  int64_t bases_written() const { return bases_written_; }
  int64_t records_appended() const { return records_appended_; }
  int64_t compactions() const { return compactions_; }
  int64_t corrupt_tails_ignored() const { return corrupt_tails_ignored_; }

 private:
  /// Reads the current slice bytes of shard `id` (base + log replay)
  /// without decoding; nullopt when absent/unusable. `records_out` gets
  /// the number of valid log records replayed.
  std::optional<std::vector<uint8_t>> CurrentBytes(int32_t shard_id,
                                                   int64_t* records_out);

  Status WriteBase(int32_t shard_id, std::span<const uint8_t> slice_bytes);

  std::string root_;
  Options options_;
  bool root_created_ = false;
  int64_t bases_written_ = 0;
  int64_t records_appended_ = 0;
  int64_t compactions_ = 0;
  int64_t corrupt_tails_ignored_ = 0;
};

}  // namespace spinner::dist

#endif  // SPINNER_DIST_SHARD_STORE_H_
