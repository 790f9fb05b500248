// Binary on-disk and wire formats of graph state, little-endian, each
// opening with a 4-byte magic: the SPNS session snapshot (edge list plus
// assignment), the SPSL shard slice and the SPDR delta-log record.
#ifndef SPINNER_GRAPH_BINARY_IO_H_
#define SPINNER_GRAPH_BINARY_IO_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/delta.h"
#include "graph/sharded_store.h"
#include "graph/types.h"

namespace spinner::graph_io {

/// A partitioning-session checkpoint: the raw edge list plus the current
/// assignment and partition count. Layout (little-endian):
///   magic "SPNS" (4 bytes) | version u32 | num_vertices i64 |
///   num_edges i64 | num_partitions i32 | flags u32 (bit 0: directed) |
///   edges (num_edges × {i64, i64}) | assignment (num_vertices × i32)
struct SessionSnapshot {
  int64_t num_vertices = 0;
  EdgeList edges;
  /// True if `edges` are directed (conversion weights per paper Eq. 3).
  bool directed = false;
  /// k of the assignment; 0 when no assignment has been computed yet.
  int32_t num_partitions = 0;
  /// One label per vertex in [0, num_partitions), or empty when
  /// num_partitions is 0.
  std::vector<PartitionId> assignment;
};

/// Writes a session snapshot, replacing `path` atomically (ReplaceFile,
/// common/base_log.h). Fails with InvalidArgument on out-of-range edges
/// or an assignment inconsistent with num_vertices/num_partitions. A
/// non-null `checksum` receives the FNV-1a digest of the file's bytes.
Status WriteSessionSnapshot(const std::string& path,
                            const SessionSnapshot& snapshot,
                            uint64_t* checksum = nullptr);

/// Decodes a whole session snapshot held in memory, validating every
/// invariant WriteSessionSnapshot enforces.
Result<SessionSnapshot> DecodeSessionSnapshot(std::span<const uint8_t> bytes);

/// DecodeSessionSnapshot over a file, streamed: the file is never held in
/// memory whole next to the decoded snapshot.
Result<SessionSnapshot> ReadSessionSnapshot(const std::string& path);

/// In-memory codec for one ShardedGraphStore shard slice: the same
/// magic + version + counts framing as the file format above, applied to a
/// byte buffer. This is how the cross-process wire protocol (src/dist)
/// downloads shard-local CSR slices into ShardWorker processes, and the
/// intended seed of the distributed store's per-shard persistence format.
/// Layout (little-endian):
///   magic "SPSL" (4 bytes) | version u32 | begin i64 | end i64 |
///   num_arcs i64 | offsets ((end-begin+1) × i64) |
///   targets (num_arcs × u32) | weights (num_arcs × u8) |
///   weighted_degree ((end-begin) × i64)
/// This is version 2; version 1 carried i64 targets and u32 weights and is
/// rejected as unsupported.
/// Load counters are run state, not topology, and are not serialized.
void AppendShardSlice(const ShardedGraphStore::Shard& shard,
                      std::vector<uint8_t>* out);

/// Calls `piece` with each run of bytes of the slice encoding of `shard`
/// above — magic, header fields, then each array — in order. The
/// concatenated pieces are exactly what AppendShardSlice appends, so a
/// digest can fold them in place instead of hashing an encoded copy.
void ForEachShardSlicePiece(
    const ShardedGraphStore::Shard& shard,
    const std::function<void(std::span<const uint8_t>)>& piece);

/// Exact byte size AppendShardSlice will append for `shard` — lets
/// multi-slice encoders (the Setup slice download, which may stream
/// across many chunk frames) reserve their buffer once instead of growing
/// it realloc-by-realloc at GB scale.
size_t EncodedShardSliceSize(const ShardedGraphStore::Shard& shard);

/// Decodes one shard slice from the front of `bytes`, advancing `*consumed`
/// past it. Fails with IOError on truncation and InvalidArgument on bad
/// magic/version, a range ending past ShardedGraphStore::kMaxVertices,
/// internally inconsistent counts (non-monotonic offsets, mismatched array
/// sizes, a weighted degree that is not its row's weight sum) or an arc of
/// weight 0 (the LPA label pick needs every weight >= 1). Target values are
/// not checked here: only the receiver knows the vertex count.
Result<ShardedGraphStore::Shard> DecodeShardSlice(
    std::span<const uint8_t> bytes, size_t* consumed);

/// One record of the append-only delta-log checkpoint
/// (stream/checkpoint_log.h): the graph change applied to the session and
/// the assignment transition it caused. Replaying base snapshot + records
/// reconstructs the exact session state without ever re-serializing the
/// full edge list — a checkpoint after a small delta costs O(delta), not
/// O(E).
struct DeltaLogRecord {
  /// The (coalesced) change applied via PartitioningSession::ApplyDelta.
  GraphDelta delta;
  /// Partition count after the change (Rescale records carry an empty
  /// delta and a new k).
  int32_t new_k = 0;
  /// Labels that differ from the pre-change assignment, ascending by
  /// vertex id: every new vertex plus every vertex label propagation
  /// migrated. O(moved + new), the real footprint of an incremental step.
  std::vector<std::pair<VertexId, PartitionId>> label_updates;
};

/// Appends the record's byte encoding to `out`. Layout (little-endian):
///   magic "SPDR" (4 bytes) | num_new_vertices i64 | num_added i64 |
///   num_removed i64 | new_k i32 | num_label_updates i64 |
///   added (num_added × {i64, i64}) | removed (num_removed × {i64, i64}) |
///   updates (num_label_updates × {vertex i64, label i32})
/// Integrity (per-record checksum, file header) is the log file's concern
/// — see common/base_log.h for the framing that wraps this.
void AppendDeltaLogRecord(const DeltaLogRecord& record,
                          std::vector<uint8_t>* out);

/// Decodes one record from `bytes` starting at `*consumed`, advancing
/// `*consumed` past it. Fails with IOError on truncation and
/// InvalidArgument on bad magic or negative counts.
Result<DeltaLogRecord> DecodeDeltaLogRecord(std::span<const uint8_t> bytes,
                                            size_t* consumed);

}  // namespace spinner::graph_io

#endif  // SPINNER_GRAPH_BINARY_IO_H_
