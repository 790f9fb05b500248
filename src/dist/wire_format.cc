#include "dist/wire_format.h"

#include <utility>

#include "common/string_util.h"
#include "dist/transport.h"
#include "graph/binary_io.h"

namespace spinner::dist {

namespace {

Status Truncated(const char* what) {
  return Status::IOError(std::string("truncated or malformed ") + what +
                         " payload");
}

/// LabelDelta has interior padding, so it is encoded field-by-field rather
/// than memcpy'd — the wire must never carry uninitialized bytes.
void PutMoves(WireWriter* w, const std::vector<LabelDelta>& moves) {
  w->PutU64(moves.size());
  for (const LabelDelta& m : moves) {
    w->PutI64(m.vertex);
    w->PutI32(m.label);
  }
}

bool GetMoves(WireReader* r, std::vector<LabelDelta>* moves) {
  uint64_t count = 0;
  if (!r->GetU64(&count)) return false;
  constexpr size_t kWireSize = sizeof(int64_t) + sizeof(int32_t);
  if (count > r->remaining_bytes().size() / kWireSize) return false;
  moves->resize(static_cast<size_t>(count));
  for (LabelDelta& m : *moves) {
    int64_t vertex = 0;
    if (!r->GetI64(&vertex) || !r->GetI32(&m.label)) return false;
    m.vertex = vertex;
  }
  return true;
}

}  // namespace

// --- SetupMessage --------------------------------------------------------

std::vector<uint8_t> SetupMessage::Encode() const {
  WireWriter w;
  w.PutVector(owned_shards);
  for (const ShardedGraphStore::Shard& shard : shards) {
    graph_io::AppendShardSlice(shard, &w.buffer());
  }
  return w.Take();
}

std::vector<uint8_t> EncodeSetupFromStore(
    const std::vector<int32_t>& owned_shards, const ShardedGraphStore& store) {
  WireWriter w;
  w.PutVector(owned_shards);
  // Reserve the exact slice footprint up front: a Setup payload can reach
  // many chunk frames' worth of bytes, and growth reallocations at that
  // scale double the peak memory of the send path.
  size_t total = w.buffer().size();
  for (const int32_t s : owned_shards) {
    total += graph_io::EncodedShardSliceSize(store.shard(s));
  }
  w.buffer().reserve(total);
  for (const int32_t s : owned_shards) {
    graph_io::AppendShardSlice(store.shard(s), &w.buffer());
  }
  return w.Take();
}

Result<SetupMessage> SetupMessage::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  SetupMessage m;
  if (!r.GetVector(&m.owned_shards)) return Truncated("Setup");
  m.shards.reserve(m.owned_shards.size());
  size_t consumed = r.position();
  for (size_t i = 0; i < m.owned_shards.size(); ++i) {
    SPINNER_ASSIGN_OR_RETURN(ShardedGraphStore::Shard shard,
                             graph_io::DecodeShardSlice(payload, &consumed));
    m.shards.push_back(std::move(shard));
  }
  if (consumed != payload.size()) {
    return Status::InvalidArgument(
        StrFormat("Setup has %zu bytes after its last slice",
                  payload.size() - consumed));
  }
  return m;
}

// --- Hello / Assign / Resume ---------------------------------------------

std::vector<uint8_t> HelloMessage::Encode() const {
  WireWriter w;
  w.PutU32(protocol_version);
  w.PutI64(capacity);
  return w.Take();
}

Result<HelloMessage> HelloMessage::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  HelloMessage m;
  if (!r.GetU32(&m.protocol_version) || !r.GetI64(&m.capacity)) {
    return Truncated("Hello");
  }
  return m;
}

std::vector<uint8_t> AssignMessage::Encode() const {
  WireWriter w;
  w.PutI32(num_partitions);
  w.PutU64(seed);
  w.PutU8(balance_on_vertices);
  w.PutU8(per_worker_async);
  w.PutI64(num_vertices);
  w.PutI32(num_shards_total);
  w.PutVector(owned_shards);
  w.PutI32(fail_after_score_steps);
  return w.Take();
}

Result<AssignMessage> AssignMessage::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  AssignMessage m;
  if (!r.GetI32(&m.num_partitions) || !r.GetU64(&m.seed) ||
      !r.GetU8(&m.balance_on_vertices) || !r.GetU8(&m.per_worker_async) ||
      !r.GetI64(&m.num_vertices) || !r.GetI32(&m.num_shards_total) ||
      !r.GetVector(&m.owned_shards) ||
      !r.GetI32(&m.fail_after_score_steps)) {
    return Truncated("Assign");
  }
  // A protocol-5 Assign (slice fingerprints before the test hook) must
  // not decode with its fingerprint count read as the hook.
  if (!r.AtEnd()) {
    return Status::InvalidArgument("Assign has bytes after its last field");
  }
  return m;
}

SpinnerConfig AssignMessage::ToConfig() const {
  SpinnerConfig config;
  config.num_partitions = num_partitions;
  config.seed = seed;
  config.balance_mode = balance_on_vertices != 0 ? BalanceMode::kVertices
                                                 : BalanceMode::kEdges;
  config.per_worker_async = per_worker_async != 0;
  return config;
}

std::vector<uint8_t> ResumeMessage::Encode() const {
  WireWriter w;
  w.PutVector(fingerprints);
  return w.Take();
}

Result<ResumeMessage> ResumeMessage::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  ResumeMessage m;
  if (!r.GetVector(&m.fingerprints)) return Truncated("Resume");
  return m;
}

// --- InitRequest ---------------------------------------------------------

std::vector<uint8_t> InitRequest::Encode() const {
  WireWriter w;
  w.PutI64(base);
  w.PutVector(initial_labels);
  return w.Take();
}

Result<InitRequest> InitRequest::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  InitRequest m;
  int64_t base = 0;
  if (!r.GetI64(&base) || !r.GetVector(&m.initial_labels)) {
    return Truncated("Init");
  }
  m.base = base;
  return m;
}

// --- ShardStateReply -----------------------------------------------------

std::vector<uint8_t> ShardStateReply::Encode() const {
  WireWriter w;
  w.PutU64(shards.size());
  for (const ShardState& s : shards) {
    w.PutI32(s.shard);
    w.PutVector(s.labels);
    w.PutVector(s.loads);
    w.PutI64(s.messages);
  }
  return w.Take();
}

Result<ShardStateReply> ShardStateReply::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  ShardStateReply m;
  uint64_t count = 0;
  if (!r.GetU64(&count)) return Truncated("ShardState reply");
  for (uint64_t i = 0; i < count; ++i) {
    ShardState s;
    if (!r.GetI32(&s.shard) || !r.GetVector(&s.labels) ||
        !r.GetVector(&s.loads) || !r.GetI64(&s.messages)) {
      return Truncated("ShardState reply");
    }
    m.shards.push_back(std::move(s));
  }
  return m;
}

// --- SubscribeMessage / LabelValues --------------------------------------

std::vector<uint8_t> SubscribeMessage::Encode() const {
  WireWriter w;
  w.PutVector(vertices);
  return w.Take();
}

Result<SubscribeMessage> SubscribeMessage::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  SubscribeMessage m;
  if (!r.GetVector(&m.vertices)) return Truncated("Subscribe");
  return m;
}

std::vector<uint8_t> LabelValues::Encode() const {
  WireWriter w;
  w.PutVector(values);
  return w.Take();
}

Result<LabelValues> LabelValues::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  LabelValues m;
  if (!r.GetVector(&m.values)) return Truncated("Labels");
  return m;
}

// --- ScoresRequest / ScoresReply -----------------------------------------

std::vector<uint8_t> ScoresRequest::Encode() const {
  WireWriter w;
  w.PutI64(superstep);
  w.PutVector(global_loads);
  w.PutVector(capacities);
  return w.Take();
}

Result<ScoresRequest> ScoresRequest::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  ScoresRequest m;
  if (!r.GetI64(&m.superstep) || !r.GetVector(&m.global_loads) ||
      !r.GetVector(&m.capacities)) {
    return Truncated("Scores");
  }
  return m;
}

std::vector<uint8_t> ScoresReply::Encode() const {
  WireWriter w;
  w.PutVector(block_score);
  w.PutI64(local_weight);
  w.PutVector(migration_counts);
  w.PutI64(compute_ns);
  return w.Take();
}

Result<ScoresReply> ScoresReply::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  ScoresReply m;
  if (!r.GetVector(&m.block_score) || !r.GetI64(&m.local_weight) ||
      !r.GetVector(&m.migration_counts) || !r.GetI64(&m.compute_ns)) {
    return Truncated("ScoresReply");
  }
  return m;
}

// --- MigrateRequest / MigrateReply ---------------------------------------

std::vector<uint8_t> MigrateRequest::Encode() const {
  WireWriter w;
  w.PutI64(superstep);
  w.PutVector(global_loads);
  w.PutVector(capacities);
  w.PutVector(migration_counts);
  return w.Take();
}

Result<MigrateRequest> MigrateRequest::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  MigrateRequest m;
  if (!r.GetI64(&m.superstep) || !r.GetVector(&m.global_loads) ||
      !r.GetVector(&m.capacities) || !r.GetVector(&m.migration_counts)) {
    return Truncated("Migrate");
  }
  return m;
}

std::vector<uint8_t> MigrateReply::Encode() const {
  WireWriter w;
  w.PutU64(shards.size());
  for (const ShardMigrateResult& s : shards) {
    w.PutI32(s.shard);
    PutMoves(&w, s.moves);
    w.PutVector(s.loads);
    w.PutI64(s.migrated);
    w.PutI64(s.messages);
  }
  w.PutI64(compute_ns);
  return w.Take();
}

Result<MigrateReply> MigrateReply::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  MigrateReply m;
  uint64_t count = 0;
  if (!r.GetU64(&count)) return Truncated("MigrateReply");
  for (uint64_t i = 0; i < count; ++i) {
    ShardMigrateResult s;
    if (!r.GetI32(&s.shard) || !GetMoves(&r, &s.moves) ||
        !r.GetVector(&s.loads) || !r.GetI64(&s.migrated) ||
        !r.GetI64(&s.messages)) {
      return Truncated("MigrateReply");
    }
    m.shards.push_back(std::move(s));
  }
  if (!r.GetI64(&m.compute_ns)) return Truncated("MigrateReply");
  return m;
}

// --- ApplyDeltas / DeltasAck ---------------------------------------------

std::vector<uint8_t> ApplyDeltasMessage::Encode() const {
  WireWriter w;
  PutMoves(&w, moves);
  return w.Take();
}

Result<ApplyDeltasMessage> ApplyDeltasMessage::Decode(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  ApplyDeltasMessage m;
  if (!GetMoves(&r, &m.moves)) return Truncated("ApplyDeltas");
  return m;
}

std::vector<uint8_t> DeltasAck::Encode() const {
  WireWriter w;
  w.PutU64(labels_checksum);
  return w.Take();
}

Result<DeltasAck> DeltasAck::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  DeltasAck m;
  if (!r.GetU64(&m.labels_checksum)) return Truncated("DeltasAck");
  return m;
}

// --- ErrorMessage --------------------------------------------------------

std::vector<uint8_t> ErrorMessage::Encode() const {
  WireWriter w;
  w.PutI32(code);
  w.PutString(message);
  return w.Take();
}

Result<ErrorMessage> ErrorMessage::Decode(std::span<const uint8_t> payload) {
  WireReader r(payload);
  ErrorMessage m;
  if (!r.GetI32(&m.code) || !r.GetString(&m.message)) {
    return Truncated("Error");
  }
  return m;
}

ErrorMessage ErrorMessage::FromStatus(const Status& status) {
  ErrorMessage m;
  m.code = static_cast<int32_t>(status.code());
  m.message = status.message();
  return m;
}

Status ErrorMessage::ToStatus() const {
  return Status(static_cast<StatusCode>(code), message);
}

LabelChecksum& LabelChecksum::Update(std::span<const PartitionId> labels) {
  size_t i = 0;
  if (count_ % 2 == 1 && !labels.empty()) UpdateOne(labels[i++]);
  for (; i + 1 < labels.size(); i += 2) {
    Fold(Word(labels[i], labels[i + 1]));
    count_ += 2;
  }
  if (i < labels.size()) UpdateOne(labels[i]);
  return *this;
}

uint64_t LabelChecksum::digest() const {
  constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  LabelChecksum last = *this;
  if (count_ % 2 == 1) last.Fold(Word(pending_, 0));
  uint64_t h = last.h_ ^ count_;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

uint64_t ChecksumLabels(std::span<const PartitionId> labels) {
  return LabelChecksum().Update(labels).digest();
}

}  // namespace spinner::dist
