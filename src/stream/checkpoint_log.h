// Incremental (base + delta-log) checkpointing for a PartitioningSession.
//
// PartitioningSession::Snapshot re-serializes the full edge list — O(E)
// per checkpoint, which a streaming service applying small deltas at high
// rate cannot afford. IncrementalCheckpointer amortizes that: a full SPNS
// base image is written once, and every subsequent checkpoint appends one
// compact record (the GraphDelta plus the assignment labels that changed)
// to an append-only side log — O(delta), not O(E). When the log grows past
// a threshold, it is folded back into a fresh base and truncated
// (compaction), bounding replay time.
//
// On-disk, a base at <path> is one base-plus-log pair (common/base_log.h):
//   <path>        full SPNS session snapshot (graph/binary_io.h)
//   <path>.dlog   an "SPDG" log (version 2) bound to the FNV-1a digest of
//                 the whole base file; each record is one SPDR record
//                 (graph_io::AppendDeltaLogRecord)
// So a log can never be replayed against the wrong (or rewritten) base.
// A torn or corrupt log tail is rejected with a clean Status — a crash
// mid-append must never poison restore.
//
// Load() replays base + log into a SessionSnapshot whose state is
// byte-identical to a full Snapshot() taken at the same point: edges are
// rebuilt through the ApplyDelta fold and sorted into the canonical order
// Snapshot() writes, and label updates replay the exact assignment
// transitions.
//
// Not thread-safe; the streaming ingestion service drives one instance
// from its ingestion thread.
#ifndef SPINNER_STREAM_CHECKPOINT_LOG_H_
#define SPINNER_STREAM_CHECKPOINT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/binary_io.h"
#include "graph/delta.h"
#include "graph/types.h"
#include "spinner/session.h"

namespace spinner::stream {

/// Append-only delta-log checkpointing around a base SPNS image.
class IncrementalCheckpointer {
 public:
  struct Options {
    /// Fold the log into a new base once it holds this many records.
    /// Compaction cost is O(E); between compactions every checkpoint is
    /// O(delta).
    int64_t compact_after_records = 64;
  };

  /// Checkpoints to `base_path` (+ ".dlog" for the log). Nothing touches
  /// the filesystem until WriteBase()/Append().
  explicit IncrementalCheckpointer(std::string base_path)
      : IncrementalCheckpointer(std::move(base_path), Options()) {}
  IncrementalCheckpointer(std::string base_path, Options options);

  /// Writes a full base snapshot of `session` and truncates the log. The
  /// O(E) step — call once at service start (Append does it automatically
  /// on first use and at the compaction threshold).
  Status WriteBase(const PartitioningSession& session);

  /// Appends one O(delta) record: `delta` must be the exact GraphDelta
  /// just applied to `session` (the service passes the coalesced window),
  /// and the session's current assignment/k close the transition. Without
  /// a prior WriteBase (or past the compaction threshold) this writes a
  /// fresh base instead.
  Status Append(const PartitioningSession& session, const GraphDelta& delta);

  /// Replays base + log into the checkpointed session state. Fails with a
  /// descriptive Status on a missing/corrupt base, a log bound to a
  /// different base, or a truncated/corrupt record — never crashes.
  static Result<graph_io::SessionSnapshot> Load(
      const std::string& base_path);

  /// Load() + RestoreSnapshot() into `session`.
  static Status RestoreSession(const std::string& base_path,
                               PartitioningSession* session);

  /// Records appended since the last base write.
  int64_t records_since_base() const { return records_since_base_; }
  /// Full base images written over this checkpointer's lifetime.
  int64_t bases_written() const { return bases_written_; }
  const std::string& base_path() const { return base_path_; }
  std::string log_path() const { return base_path_ + ".dlog"; }

 private:
  /// Diffs the session assignment against last_assignment_ into
  /// ascending-vertex label updates.
  std::vector<std::pair<VertexId, PartitionId>> DiffLabels(
      const std::vector<PartitionId>& current) const;

  std::string base_path_;
  Options options_;
  bool has_base_ = false;
  int64_t records_since_base_ = 0;
  int64_t bases_written_ = 0;
  /// Assignment as of the last checkpoint (base or record) — the diff
  /// anchor for the next Append.
  std::vector<PartitionId> last_assignment_;
};

}  // namespace spinner::stream

#endif  // SPINNER_STREAM_CHECKPOINT_LOG_H_
