// Message layer of the cross-process wire protocol: typed payload codecs
// for every frame the coordinator and ShardWorker processes exchange
// (dist/transport.h moves the bytes). The protocol is a strict lockstep
// RPC per superstep phase, mirroring the SuperstepBackend interface
// (spinner/superstep_driver.h) on the wire:
//
//   Hello          w→c   protocol version + capacity (first message on
//                        every connection; the registry validates it)
//   Assign         c→w   run config + contiguous shard-range assignment
//   Resume         w→c   fingerprints of the assigned shards the worker
//                        already holds (persistent store), 0 = absent;
//                        the coordinator checks each non-zero one
//   Setup          c→w   the stale/missing shard slices only (binary_io
//                        SPSL); empty when every fingerprint matched
//   Subscribe      w→c   the out-of-range neighbor set of the worker's
//                        shards — the only vertices whose labels it will
//                        ever be sent (its boundary mirror)
//   Init           c→w   initial/restart labels
//   InitReply      w→c   per-shard label slices + load vectors + messages
//   Labels         c→w   subscribed label values, subscription order
//                        (once, after Init — seeds the boundary mirror)
//   Scores         c→w   superstep, frozen global loads, capacities
//   ScoresReply    w→c   per-block score partials, φ partial, migration
//                        counters, worker compute time
//   Migrate        c→w   superstep, frozen loads, capacities, merged
//                        migration counters
//   MigrateReply   w→c   label deltas + per-shard load vectors + counters
//                        + worker compute time
//   ApplyDeltas    c→w   label deltas filtered to the worker's
//                        subscription (its own moves were applied locally)
//   DeltasAck      w→c   checksum over owned slices + subscribed mirror
//                        (cross-process consistency gate, verified every
//                        iteration)
//   Snapshot       c→w   final state request
//   SnapshotReply  w→c   per-shard label slices + load vectors
//   Teardown       c→w   clean shutdown request
//   TeardownAck    w→c   worker is about to exit 0
//   Error          w→c   Status code + message (decode/validation failure)
//
// Everything is little-endian; vectors are u64-count-prefixed and counts
// are validated against the remaining payload before any allocation.
// Messages of any size stream across frames via the transport's chunk
// layer (dist/transport.h SendMessage/RecvMessage), so none of these
// payloads is bounded by the frame limit. See docs/WIRE_FORMAT.md for the
// full byte-level layout.
#ifndef SPINNER_DIST_WIRE_FORMAT_H_
#define SPINNER_DIST_WIRE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "dist/transport.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/shard_superstep.h"

namespace spinner::dist {

/// Frame type tags (the u32 `type` of dist/transport.h frames; the value
/// kChunkFrameType is reserved by the transport's chunk layer).
enum class MessageType : uint32_t {
  kError = 0,
  kSetup = 1,
  kInit = 2,
  kInitReply = 3,
  kLabels = 4,
  kScores = 5,
  kScoresReply = 6,
  kMigrate = 7,
  kMigrateReply = 8,
  kApplyDeltas = 9,
  kDeltasAck = 10,
  kSnapshot = 11,
  kSnapshotReply = 12,
  kTeardown = 13,
  kTeardownAck = 14,
  kSubscribe = 15,
  kHello = 16,
  kAssign = 17,
  kResume = 18,
};

/// Version of the Hello/Assign/Resume handshake. A worker advertising a
/// different version is rejected at the registry before it can join a run.
/// Version 5 carries SPSL version 2 slices (u32 targets, u8 weights);
/// version 6 drops the slice fingerprints from Assign.
inline constexpr uint32_t kProtocolVersion = 6;

/// Appends primitive values and count-prefixed vectors to a payload buffer.
class WireWriter {
 public:
  void PutU8(uint8_t v) { PutRaw(v); }
  void PutU32(uint32_t v) { PutRaw(v); }
  void PutU64(uint64_t v) { PutRaw(v); }
  void PutI32(int32_t v) { PutRaw(v); }
  void PutI64(int64_t v) { PutRaw(v); }

  template <typename T>
  void PutVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(values.size());
    Append(values.data(), values.size() * sizeof(T));
  }

  void PutString(const std::string& s) {
    PutU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::vector<uint8_t> Take() { return std::move(buf_); }
  std::vector<uint8_t>& buffer() { return buf_; }

 private:
  template <typename T>
  void PutRaw(const T& value) {
    Append(&value, sizeof(T));
  }

  /// resize + memcpy rather than insert(iter, ptr, ptr): identical
  /// behavior without tripping GCC's stringop-overflow false positive on
  /// reinterpret_cast'ed ranges. The size == 0 guard keeps memcpy away
  /// from the null data() of empty vectors (UB even for zero bytes).
  void Append(const void* data, size_t size) {
    if (size == 0) return;
    const size_t old_size = buf_.size();
    buf_.resize(old_size + size);
    std::memcpy(buf_.data() + old_size, data, size);
  }

  std::vector<uint8_t> buf_;
};

/// Truncation-checked reader over a payload. Every Get returns false on a
/// short or malformed buffer; vector counts are validated against the
/// remaining bytes BEFORE allocating, so a corrupt count cannot OOM.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) { return GetRaw(v); }
  bool GetU32(uint32_t* v) { return GetRaw(v); }
  bool GetU64(uint64_t* v) { return GetRaw(v); }
  bool GetI32(int32_t* v) { return GetRaw(v); }
  bool GetI64(int64_t* v) { return GetRaw(v); }
  bool GetDouble(double* v) { return GetRaw(v); }

  template <typename T>
  bool GetVector(std::vector<T>* values) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!GetU64(&count)) return false;
    if (count > (bytes_.size() - pos_) / sizeof(T)) return false;
    values->resize(static_cast<size_t>(count));
    if (count == 0) return true;  // empty data() may be null; skip memcpy
    std::memcpy(values->data(), bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return true;
  }

  bool GetString(std::string* s) {
    uint64_t count = 0;
    if (!GetU64(&count)) return false;
    if (count > bytes_.size() - pos_) return false;
    s->assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
              static_cast<size_t>(count));
    pos_ += count;
    return true;
  }

  std::span<const uint8_t> remaining_bytes() const {
    return bytes_.subspan(pos_);
  }
  size_t position() const { return pos_; }
  void Advance(size_t n) { pos_ += n; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  bool GetRaw(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

// --- Message payloads ----------------------------------------------------

/// Hello (w→c): the first message on every worker connection — version
/// check plus the worker's advertised capacity, which the coordinator
/// weighs when carving contiguous shard ranges (equal capacities reduce to
/// an even split).
struct HelloMessage {
  uint32_t protocol_version = kProtocolVersion;
  /// Relative shard-hosting capacity (>= 1); a host advertising 2 is
  /// assigned roughly twice the shards of a host advertising 1.
  int64_t capacity = 1;

  std::vector<uint8_t> Encode() const;
  static Result<HelloMessage> Decode(std::span<const uint8_t> payload);
};

/// Assign (c→w): the run configuration and this worker's contiguous shard
/// assignment. The worker probes its PersistentShardStore and reports what
/// it already holds (Resume); the coordinator fingerprints its own slices
/// of the reported shards only and downloads the stale or missing slices
/// in the subsequent Setup.
struct AssignMessage {
  int32_t num_partitions = 0;
  uint64_t seed = 0;
  uint8_t balance_on_vertices = 0;  // BalanceMode::kVertices
  uint8_t per_worker_async = 1;
  int64_t num_vertices = 0;
  int32_t num_shards_total = 0;
  /// Global shard ids assigned to this worker, ascending, contiguous
  /// vertex ranges.
  std::vector<int32_t> owned_shards;
  /// Test hook: _exit(3) right before replying to the
  /// (fail_after_score_steps+1)-th Scores request; -1 = never.
  int32_t fail_after_score_steps = -1;

  std::vector<uint8_t> Encode() const;
  static Result<AssignMessage> Decode(std::span<const uint8_t> payload);

  /// The SpinnerConfig subset the shard superstep kernels read.
  SpinnerConfig ToConfig() const;
};

/// Resume (w→c): the worker's answer to Assign — the fingerprint of every
/// assigned shard as loaded from its PersistentShardStore (the shard's one
/// file), 0 where the store holds nothing usable. A fingerprint
/// equal to the coordinator's (FNV-1a over its SPSL slice bytes) means the
/// coordinator skips that slice in Setup entirely: the zero-download
/// restart path.
struct ResumeMessage {
  std::vector<uint64_t> fingerprints;  // one per assigned shard, in order

  std::vector<uint8_t> Encode() const;
  static Result<ResumeMessage> Decode(std::span<const uint8_t> payload);
};

/// Setup (c→w): the shard slices (binary_io SPSL encoding) whose Resume
/// fingerprint missed — a subset of the Assign list, possibly empty. The
/// run config and the full assignment travel once, in Assign.
struct SetupMessage {
  /// Global shard ids of the slices below, ascending; one slice each.
  std::vector<int32_t> owned_shards;
  std::vector<ShardedGraphStore::Shard> shards;

  std::vector<uint8_t> Encode() const;
  static Result<SetupMessage> Decode(std::span<const uint8_t> payload);
};

/// Encodes a Setup whose slices are appended straight from `store` for
/// `owned_shards` — the coordinator's send path, which must not deep-copy
/// every CSR slice into an intermediate SetupMessage first.
std::vector<uint8_t> EncodeSetupFromStore(
    const std::vector<int32_t>& owned_shards, const ShardedGraphStore& store);

struct InitRequest {
  /// Global vertex id of initial_labels[0]. The coordinator sends each
  /// worker only the slice covering its owned range (base = first owned
  /// vertex), so Init traffic and worker memory are O(owned), not O(V).
  VertexId base = 0;
  /// The driver's initial-label contract: entries whose *global* id
  /// (base + index) falls below the caller's initial-label count and that
  /// are not kNoPartition are fixed restart labels; everything else
  /// hash-draws.
  std::vector<PartitionId> initial_labels;

  std::vector<uint8_t> Encode() const;
  static Result<InitRequest> Decode(std::span<const uint8_t> payload);
};

/// One shard's mutable run state: its label slice and load counters. Used
/// by InitReply and SnapshotReply (messages = label-advertisement count for
/// Init, 0 for snapshots).
struct ShardState {
  int32_t shard = 0;
  std::vector<PartitionId> labels;  // [begin, end) slice
  std::vector<int64_t> loads;       // k entries
  int64_t messages = 0;
};

struct ShardStateReply {
  std::vector<ShardState> shards;

  std::vector<uint8_t> Encode() const;
  static Result<ShardStateReply> Decode(std::span<const uint8_t> payload);
};

/// Subscribe (w→c): the sorted, unique out-of-range neighbor set of the
/// worker's shards — the PowerGraph-style mirror set. The coordinator
/// indexes it once and thereafter sends the worker labels for exactly
/// these vertices, so steady-state label traffic is proportional to the
/// edge cut, not the vertex count.
struct SubscribeMessage {
  std::vector<VertexId> vertices;  // strictly ascending, none owned

  std::vector<uint8_t> Encode() const;
  static Result<SubscribeMessage> Decode(std::span<const uint8_t> payload);
};

/// Labels (c→w): label values for the receiving worker's subscribed
/// vertices, in subscription order — sent once after Init to seed the
/// boundary mirror (afterwards only subscription-filtered deltas flow).
struct LabelValues {
  std::vector<PartitionId> values;  // one per subscribed vertex, in order

  std::vector<uint8_t> Encode() const;
  static Result<LabelValues> Decode(std::span<const uint8_t> payload);
};

struct ScoresRequest {
  int64_t superstep = 0;
  std::vector<int64_t> global_loads;
  std::vector<double> capacities;

  std::vector<uint8_t> Encode() const;
  static Result<ScoresRequest> Decode(std::span<const uint8_t> payload);
};

struct ScoresReply {
  /// Per-block score partials of the worker's owned blocks, concatenated
  /// over owned shards in ascending shard order (block ranges are implied
  /// by the shard ranges the coordinator assigned).
  std::vector<double> block_score;
  int64_t local_weight = 0;
  /// Migration counters merged over the worker's shards (integer adds are
  /// order-free, so per-worker merging cannot perturb determinism).
  std::vector<int64_t> migration_counts;
  /// Wall nanoseconds the worker spent computing this reply (decode to
  /// encode). Observability only; never feeds the partitioning.
  int64_t compute_ns = 0;

  std::vector<uint8_t> Encode() const;
  static Result<ScoresReply> Decode(std::span<const uint8_t> payload);
};

struct MigrateRequest {
  int64_t superstep = 0;
  std::vector<int64_t> global_loads;
  std::vector<double> capacities;
  std::vector<int64_t> migration_counts;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateRequest> Decode(std::span<const uint8_t> payload);
};

/// One shard's migration outcome: the label deltas it applied (ascending
/// vertex order), its post-migration load vector, and counters.
struct ShardMigrateResult {
  int32_t shard = 0;
  std::vector<LabelDelta> moves;
  std::vector<int64_t> loads;
  int64_t migrated = 0;
  int64_t messages = 0;
};

struct MigrateReply {
  std::vector<ShardMigrateResult> shards;
  /// Wall nanoseconds the worker spent computing this reply, as in
  /// ScoresReply.
  int64_t compute_ns = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateReply> Decode(std::span<const uint8_t> payload);
};

struct ApplyDeltasMessage {
  /// Label deltas of ALL shards this superstep, in fixed shard order.
  std::vector<LabelDelta> moves;

  std::vector<uint8_t> Encode() const;
  static Result<ApplyDeltasMessage> Decode(std::span<const uint8_t> payload);
};

struct DeltasAck {
  /// LabelChecksum over the worker's owned label slices (ascending shard
  /// order) followed by its subscribed mirror values (subscription order)
  /// after applying the deltas; must equal the checksum the coordinator
  /// computes from its authoritative label array for that worker.
  uint64_t labels_checksum = 0;

  std::vector<uint8_t> Encode() const;
  static Result<DeltasAck> Decode(std::span<const uint8_t> payload);
};

struct ErrorMessage {
  int32_t code = 0;  // StatusCode
  std::string message;

  std::vector<uint8_t> Encode() const;
  static Result<ErrorMessage> Decode(std::span<const uint8_t> payload);

  static ErrorMessage FromStatus(const Status& status);
  Status ToStatus() const;
};

/// Streaming digest of a label sequence — the per-iteration
/// cross-process consistency gate carried by DeltasAck. Both sides fold a
/// worker's owned slices and then its subscribed mirror values through one
/// of these in the same order, so the digests agree iff the states do.
///
/// The digest reads the sequence a 64-bit word (two labels) at a time:
/// h = rotl(h ^ word·P2, 31)·P1. A final odd label folds in as a word with
/// a zero high half, the label count is xored in and an avalanche
/// finishes (docs/WIRE_FORMAT.md has the exact definition). Each fold is a
/// bijection in the word it consumes and in the running state, so a
/// change to any one label — any one word — changes the digest with
/// certainty, not just with high probability. The digest depends only on
/// the sequence, never on how it was split across Update/UpdateOne calls.
class LabelChecksum {
 public:
  LabelChecksum& Update(std::span<const PartitionId> labels);

  LabelChecksum& UpdateOne(PartitionId label) {
    if (count_ % 2 == 0) {
      pending_ = label;
    } else {
      Fold(Word(pending_, label));
    }
    ++count_;
    return *this;
  }

  uint64_t digest() const;

 private:
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;

  /// Labels `first` and `second` as one word, `first` in the low half.
  static uint64_t Word(PartitionId first, PartitionId second) {
    return static_cast<uint64_t>(static_cast<uint32_t>(second)) << 32 |
           static_cast<uint32_t>(first);
  }

  void Fold(uint64_t word) { h_ = std::rotl(h_ ^ word * kP2, 31) * kP1; }

  uint64_t h_ = kP1;
  PartitionId pending_ = 0;  // the first label of an unfinished word
  uint64_t count_ = 0;       // labels folded so far
};

/// The LabelChecksum digest of one label array.
uint64_t ChecksumLabels(std::span<const PartitionId> labels);

}  // namespace spinner::dist

#endif  // SPINNER_DIST_WIRE_FORMAT_H_
