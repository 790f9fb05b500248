#include "graph/binary_io.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/base_log.h"
#include "common/string_util.h"
#include "graph/edge_list.h"

namespace spinner::graph_io {

namespace {
constexpr char kSnapshotMagic[4] = {'S', 'P', 'N', 'S'};
constexpr uint32_t kSnapshotVersion = 1;

template <typename T>
void PutRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

static_assert(sizeof(Edge) == 2 * sizeof(VertexId) &&
                  offsetof(Edge, src) == 0 &&
                  offsetof(Edge, dst) == sizeof(VertexId) &&
                  std::is_trivially_copyable_v<Edge>,
              "an edge's bytes must be its src then its dst, unpadded");

/// Writes the elements' bytes as one run (nothing for an empty vector,
/// whose data() may be null).
template <typename T>
void PutArray(std::ostream& out, const std::vector<T>& values) {
  if (values.empty()) return;
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

/// Reservation clamp for header counts: they are untrusted until the
/// elements actually arrive, so never pre-allocate more than this many —
/// a corrupt count then fails with a clean truncation error instead of
/// an uncatchable std::length_error from reserve().
constexpr int64_t kMaxReserve = 1 << 20;
}  // namespace

Status WriteSessionSnapshot(const std::string& path,
                            const SessionSnapshot& snapshot,
                            uint64_t* checksum) {
  if (snapshot.num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!EdgesInRange(snapshot.edges, snapshot.num_vertices)) {
    return Status::InvalidArgument("edge endpoint outside the vertex range");
  }
  if (snapshot.num_partitions < 0) {
    return Status::InvalidArgument("negative partition count");
  }
  if (snapshot.num_partitions > 0) {
    if (static_cast<int64_t>(snapshot.assignment.size()) !=
        snapshot.num_vertices) {
      return Status::InvalidArgument(
          "assignment must cover every vertex");
    }
    for (PartitionId l : snapshot.assignment) {
      if (l < 0 || l >= snapshot.num_partitions) {
        return Status::InvalidArgument("assignment label out of range");
      }
    }
  } else if (!snapshot.assignment.empty()) {
    return Status::InvalidArgument(
        "assignment present but num_partitions is 0");
  }

  const auto write = [&](std::ostream& out) {
    out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
    PutRaw(out, kSnapshotVersion);
    PutRaw(out, snapshot.num_vertices);
    PutRaw(out, static_cast<int64_t>(snapshot.edges.size()));
    PutRaw(out, snapshot.num_partitions);
    PutRaw(out, static_cast<uint32_t>(snapshot.directed ? 1 : 0));
    // The edge and label arrays go out as one run each: their in-memory
    // bytes are exactly the per-element encoding (src then dst per edge).
    PutArray(out, snapshot.edges);
    PutArray(out, snapshot.assignment);
  };
  return ReplaceFile(path, write, checksum);
}

namespace {

constexpr char kSliceMagic[4] = {'S', 'P', 'S', 'L'};
/// Version 2 narrowed targets to u32 and weights to u8.
constexpr uint32_t kSliceVersion = 2;

/// resize + memcpy rather than insert(iter, ptr, ptr): identical behavior
/// without tripping GCC's stringop-overflow false positive on
/// reinterpret_cast'ed ranges. The size == 0 guard keeps memcpy away from
/// the null data() of empty vectors (UB even for zero bytes).
void AppendBytes(std::vector<uint8_t>* out, const void* data, size_t size) {
  if (size == 0) return;
  const size_t old_size = out->size();
  out->resize(old_size + size);
  std::memcpy(out->data() + old_size, data, size);
}

template <typename T>
void AppendRaw(std::vector<uint8_t>* out, const T& value) {
  AppendBytes(out, &value, sizeof(T));
}

template <typename T>
void AppendArray(std::vector<uint8_t>* out, const std::vector<T>& values) {
  AppendBytes(out, values.data(), values.size() * sizeof(T));
}

/// Cursor over an input buffer with truncation-checked reads.
class SliceCursor {
 public:
  SliceCursor(std::span<const uint8_t> bytes, size_t pos)
      : bytes_(bytes), pos_(pos) {}

  template <typename T>
  bool Get(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool GetArray(std::vector<T>* values, int64_t count) {
    // Divide, never multiply: count * sizeof(T) could wrap and slip a
    // huge resize past the bounds check.
    if (count < 0 ||
        static_cast<uint64_t>(count) > (bytes_.size() - pos_) / sizeof(T)) {
      return false;
    }
    values->resize(static_cast<size_t>(count));
    if (count == 0) return true;  // empty data() may be null; skip memcpy
    const size_t want = static_cast<size_t>(count) * sizeof(T);
    std::memcpy(values->data(), bytes_.data() + pos_, want);
    pos_ += want;
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_;
};

}  // namespace

size_t EncodedShardSliceSize(const ShardedGraphStore::Shard& shard) {
  size_t size = 0;
  ForEachShardSlicePiece(shard, [&size](std::span<const uint8_t> piece) {
    size += piece.size();
  });
  return size;
}

void ForEachShardSlicePiece(
    const ShardedGraphStore::Shard& shard,
    const std::function<void(std::span<const uint8_t>)>& piece) {
  const auto bytes = [&](const void* data, size_t size) {
    piece({static_cast<const uint8_t*>(data), size});
  };
  const auto raw = [&](const auto& value) { bytes(&value, sizeof(value)); };
  const auto array = [&](const auto& values) {
    bytes(values.data(), values.size() * sizeof(values[0]));
  };
  bytes(kSliceMagic, sizeof(kSliceMagic));
  raw(kSliceVersion);
  raw(static_cast<int64_t>(shard.begin));
  raw(static_cast<int64_t>(shard.end));
  raw(shard.NumArcs());
  array(shard.offsets);
  array(shard.targets);
  array(shard.weights);
  array(shard.weighted_degree);
}

void AppendShardSlice(const ShardedGraphStore::Shard& shard,
                      std::vector<uint8_t>* out) {
  ForEachShardSlicePiece(shard, [out](std::span<const uint8_t> piece) {
    AppendBytes(out, piece.data(), piece.size());
  });
}

Result<ShardedGraphStore::Shard> DecodeShardSlice(
    std::span<const uint8_t> bytes, size_t* consumed) {
  SliceCursor in(bytes, *consumed);
  char magic[4];
  if (!in.Get(&magic)) return Status::IOError("truncated shard slice");
  if (std::memcmp(magic, kSliceMagic, sizeof(kSliceMagic)) != 0) {
    return Status::InvalidArgument("bad magic (not a SPSL slice)");
  }
  uint32_t version = 0;
  if (!in.Get(&version)) return Status::IOError("truncated shard slice");
  if (version != kSliceVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported shard slice version %u", version));
  }
  ShardedGraphStore::Shard shard;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t num_arcs = 0;
  if (!in.Get(&begin) || !in.Get(&end) || !in.Get(&num_arcs)) {
    return Status::IOError("truncated shard slice header");
  }
  if (begin < 0 || end < begin || num_arcs < 0) {
    return Status::InvalidArgument("negative counts in shard slice header");
  }
  if (end > ShardedGraphStore::kMaxVertices) {
    return Status::InvalidArgument(
        "shard slice range exceeds the 32-bit vertex id space");
  }
  shard.begin = begin;
  shard.end = end;
  const int64_t n_local = end - begin;
  if (!in.GetArray(&shard.offsets, n_local + 1) ||
      !in.GetArray(&shard.targets, num_arcs) ||
      !in.GetArray(&shard.weights, num_arcs) ||
      !in.GetArray(&shard.weighted_degree, n_local)) {
    return Status::IOError("truncated shard slice body");
  }
  if (shard.offsets.front() != 0 || shard.offsets.back() != num_arcs) {
    return Status::InvalidArgument("shard slice offsets do not span arcs");
  }
  for (size_t i = 1; i < shard.offsets.size(); ++i) {
    if (shard.offsets[i] < shard.offsets[i - 1]) {
      return Status::InvalidArgument("shard slice offsets not monotonic");
    }
  }
  if (std::find(shard.weights.begin(), shard.weights.end(), 0) !=
      shard.weights.end()) {
    return Status::InvalidArgument("shard slice has an arc of weight 0");
  }
  // The degrees are derived from the weights; one that disagrees would
  // skew Eq. 8 and the loads without failing anything else.
  for (int64_t row = 0; row < n_local; ++row) {
    int64_t degree = 0;
    for (int64_t i = shard.offsets[row]; i < shard.offsets[row + 1]; ++i) {
      degree += shard.weights[i];
    }
    if (degree != shard.weighted_degree[row]) {
      return Status::InvalidArgument(
          "shard slice weighted degree disagrees with its weights");
    }
  }
  shard.RebuildInvDegrees();
  *consumed = in.pos();
  return shard;
}

namespace {
constexpr char kDeltaRecordMagic[4] = {'S', 'P', 'D', 'R'};
}  // namespace

void AppendDeltaLogRecord(const DeltaLogRecord& record,
                          std::vector<uint8_t>* out) {
  out->insert(out->end(), kDeltaRecordMagic,
              kDeltaRecordMagic + sizeof(kDeltaRecordMagic));
  AppendRaw(out, record.delta.num_new_vertices);
  AppendRaw(out, static_cast<int64_t>(record.delta.added_edges.size()));
  AppendRaw(out, static_cast<int64_t>(record.delta.removed_edges.size()));
  AppendRaw(out, record.new_k);
  AppendRaw(out, static_cast<int64_t>(record.label_updates.size()));
  AppendArray(out, record.delta.added_edges);
  AppendArray(out, record.delta.removed_edges);
  // Pairs are written field-by-field: std::pair layout is not a wire
  // format.
  for (const auto& [vertex, label] : record.label_updates) {
    AppendRaw(out, vertex);
    AppendRaw(out, label);
  }
}

Result<DeltaLogRecord> DecodeDeltaLogRecord(std::span<const uint8_t> bytes,
                                            size_t* consumed) {
  SliceCursor in(bytes, *consumed);
  char magic[4];
  if (!in.Get(&magic)) return Status::IOError("truncated delta record");
  if (std::memcmp(magic, kDeltaRecordMagic, sizeof(kDeltaRecordMagic)) != 0) {
    return Status::InvalidArgument("bad magic (not a SPDR delta record)");
  }
  DeltaLogRecord record;
  int64_t num_added = 0;
  int64_t num_removed = 0;
  int64_t num_updates = 0;
  if (!in.Get(&record.delta.num_new_vertices) || !in.Get(&num_added) ||
      !in.Get(&num_removed) || !in.Get(&record.new_k) ||
      !in.Get(&num_updates)) {
    return Status::IOError("truncated delta record header");
  }
  if (record.delta.num_new_vertices < 0 || num_added < 0 ||
      num_removed < 0 || record.new_k < 0 || num_updates < 0) {
    return Status::InvalidArgument("negative counts in delta record header");
  }
  if (!in.GetArray(&record.delta.added_edges, num_added) ||
      !in.GetArray(&record.delta.removed_edges, num_removed)) {
    return Status::IOError("truncated delta record edge section");
  }
  record.label_updates.reserve(static_cast<size_t>(
      std::min(num_updates, kMaxReserve)));
  for (int64_t i = 0; i < num_updates; ++i) {
    VertexId vertex = 0;
    PartitionId label = kNoPartition;
    if (!in.Get(&vertex) || !in.Get(&label)) {
      return Status::IOError("truncated delta record label updates");
    }
    record.label_updates.emplace_back(vertex, label);
  }
  *consumed = in.pos();
  return record;
}

namespace {

/// Truncation-checked reads from a stream, the file twin of SliceCursor.
class StreamCursor {
 public:
  explicit StreamCursor(std::istream& in) : in_(in) {}

  template <typename T>
  bool Get(T* value) {
    in_.read(reinterpret_cast<char*>(value), sizeof(T));
    return static_cast<bool>(in_);
  }

 private:
  std::istream& in_;
};

/// The SPNS reader behind DecodeSessionSnapshot and ReadSessionSnapshot:
/// `in` is a SliceCursor or a StreamCursor.
template <typename Cursor>
Result<SessionSnapshot> DecodeSnapshotFrom(Cursor& in) {
  char magic[4];
  if (!in.Get(&magic) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("bad magic (not a SPNS snapshot)");
  }
  uint32_t version = 0;
  if (!in.Get(&version)) return Status::IOError("truncated header");
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported snapshot version %u", version));
  }

  SessionSnapshot snapshot;
  int64_t num_edges = 0;
  uint32_t flags = 0;
  if (!in.Get(&snapshot.num_vertices) || !in.Get(&num_edges) ||
      !in.Get(&snapshot.num_partitions) || !in.Get(&flags)) {
    return Status::IOError("truncated header");
  }
  snapshot.directed = (flags & 1u) != 0;
  if (snapshot.num_vertices < 0 || num_edges < 0 ||
      snapshot.num_partitions < 0) {
    return Status::InvalidArgument("negative counts in header");
  }
  snapshot.edges.reserve(std::min(num_edges, kMaxReserve));
  for (int64_t i = 0; i < num_edges; ++i) {
    Edge e;
    if (!in.Get(&e.src) || !in.Get(&e.dst)) {
      return Status::IOError(StrFormat(
          "truncated edge section at edge %lld of %lld",
          static_cast<long long>(i), static_cast<long long>(num_edges)));
    }
    if (e.src < 0 || e.src >= snapshot.num_vertices || e.dst < 0 ||
        e.dst >= snapshot.num_vertices) {
      return Status::InvalidArgument(StrFormat(
          "edge %lld endpoint out of range", static_cast<long long>(i)));
    }
    snapshot.edges.push_back(e);
  }
  if (snapshot.num_partitions > 0) {
    snapshot.assignment.reserve(std::min(snapshot.num_vertices, kMaxReserve));
    for (int64_t v = 0; v < snapshot.num_vertices; ++v) {
      PartitionId l;
      if (!in.Get(&l)) {
        return Status::IOError("truncated assignment section");
      }
      if (l < 0 || l >= snapshot.num_partitions) {
        return Status::InvalidArgument(StrFormat(
            "assignment label out of range at vertex %lld",
            static_cast<long long>(v)));
      }
      snapshot.assignment.push_back(l);
    }
  }
  return snapshot;
}

}  // namespace

Result<SessionSnapshot> DecodeSessionSnapshot(std::span<const uint8_t> bytes) {
  SliceCursor in(bytes, 0);
  return DecodeSnapshotFrom(in);
}

Result<SessionSnapshot> ReadSessionSnapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open: " + path);
  StreamCursor in(file);
  return DecodeSnapshotFrom(in);
}

}  // namespace spinner::graph_io
