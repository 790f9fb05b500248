#include "stream/checkpoint_log.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/string_util.h"
#include "dist/transport.h"

namespace spinner::stream {

namespace {

constexpr char kLogMagic[4] = {'S', 'P', 'D', 'G'};
constexpr uint32_t kLogVersion = 1;

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open: " + path);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IOError("short read: " + path);
  }
  return bytes;
}

/// FNV-1a of the base file — binds a log to the exact base image it was
/// appended against.
Result<uint64_t> BaseFingerprint(const std::string& base_path) {
  SPINNER_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           ReadFileBytes(base_path));
  return dist::ChecksumBytes(bytes);
}

}  // namespace

IncrementalCheckpointer::IncrementalCheckpointer(std::string base_path,
                                                 Options options)
    : base_path_(std::move(base_path)), options_(options) {
  if (options_.compact_after_records < 1) options_.compact_after_records = 1;
}

Status IncrementalCheckpointer::WriteBase(
    const PartitioningSession& session) {
  SPINNER_RETURN_IF_ERROR(session.Snapshot(base_path_));
  SPINNER_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                           BaseFingerprint(base_path_));
  std::ofstream log(log_path(), std::ios::binary | std::ios::trunc);
  if (!log) return Status::IOError("cannot open for writing: " + log_path());
  log.write(kLogMagic, sizeof(kLogMagic));
  log.write(reinterpret_cast<const char*>(&kLogVersion),
            sizeof(kLogVersion));
  log.write(reinterpret_cast<const char*>(&fingerprint),
            sizeof(fingerprint));
  log.flush();
  if (!log) return Status::IOError("write error on: " + log_path());
  has_base_ = true;
  records_since_base_ = 0;
  ++bases_written_;
  last_assignment_ = session.assignment();
  return Status::OK();
}

std::vector<std::pair<VertexId, PartitionId>>
IncrementalCheckpointer::DiffLabels(
    const std::vector<PartitionId>& current) const {
  std::vector<std::pair<VertexId, PartitionId>> updates;
  const size_t overlap = last_assignment_.size();
  for (size_t v = 0; v < current.size(); ++v) {
    if (v >= overlap || current[v] != last_assignment_[v]) {
      updates.emplace_back(static_cast<VertexId>(v), current[v]);
    }
  }
  return updates;
}

Status IncrementalCheckpointer::Append(const PartitioningSession& session,
                                       const GraphDelta& delta) {
  if (!has_base_ || records_since_base_ >= options_.compact_after_records) {
    // First checkpoint or compaction threshold: fold everything into a
    // fresh base and start an empty log.
    return WriteBase(session);
  }
  graph_io::DeltaLogRecord record;
  record.delta = delta;
  record.new_k = static_cast<int32_t>(session.num_partitions());
  record.label_updates = DiffLabels(session.assignment());

  std::vector<uint8_t> bytes;
  graph_io::AppendDeltaLogRecord(record, &bytes);
  const uint64_t checksum = dist::ChecksumBytes(bytes);

  std::ofstream log(log_path(), std::ios::binary | std::ios::app);
  if (!log) return Status::IOError("cannot open for append: " + log_path());
  log.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  log.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  log.flush();
  if (!log) return Status::IOError("write error on: " + log_path());
  ++records_since_base_;
  last_assignment_ = session.assignment();
  return Status::OK();
}

Result<graph_io::SessionSnapshot> IncrementalCheckpointer::Load(
    const std::string& base_path) {
  SPINNER_ASSIGN_OR_RETURN(graph_io::SessionSnapshot snapshot,
                           graph_io::ReadSessionSnapshot(base_path));

  const std::string log_path = base_path + ".dlog";
  auto log_bytes = ReadFileBytes(log_path);
  if (!log_bytes.ok()) return snapshot;  // base only: nothing was appended

  const std::vector<uint8_t>& bytes = *log_bytes;
  constexpr size_t kHeaderSize =
      sizeof(kLogMagic) + sizeof(kLogVersion) + sizeof(uint64_t);
  if (bytes.size() < kHeaderSize) {
    return Status::IOError("truncated delta-log header: " + log_path);
  }
  if (std::memcmp(bytes.data(), kLogMagic, sizeof(kLogMagic)) != 0) {
    return Status::InvalidArgument(
        "bad magic (not a SPDG delta log): " + log_path);
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kLogMagic), sizeof(version));
  if (version != kLogVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported delta-log version %u", version));
  }
  uint64_t expected_fingerprint = 0;
  std::memcpy(&expected_fingerprint,
              bytes.data() + sizeof(kLogMagic) + sizeof(version),
              sizeof(expected_fingerprint));
  SPINNER_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                           BaseFingerprint(base_path));
  if (fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(
        "delta log was appended against a different base image: " +
        log_path);
  }

  size_t pos = kHeaderSize;
  int64_t record_index = 0;
  while (pos < bytes.size()) {
    const size_t record_begin = pos;
    SPINNER_ASSIGN_OR_RETURN(
        graph_io::DeltaLogRecord record,
        graph_io::DecodeDeltaLogRecord(bytes, &pos));
    if (bytes.size() - pos < sizeof(uint64_t)) {
      return Status::IOError(StrFormat(
          "truncated checksum on delta record %lld",
          static_cast<long long>(record_index)));
    }
    uint64_t stored_checksum = 0;
    std::memcpy(&stored_checksum, bytes.data() + pos,
                sizeof(stored_checksum));
    pos += sizeof(stored_checksum);
    const uint64_t computed = dist::ChecksumBytes(
        std::span<const uint8_t>(bytes.data() + record_begin,
                                 pos - sizeof(stored_checksum) -
                                     record_begin));
    if (computed != stored_checksum) {
      return Status::InvalidArgument(StrFormat(
          "checksum mismatch on delta record %lld",
          static_cast<long long>(record_index)));
    }

    // Replay: the same ApplyDelta fold the live session used, then the
    // recorded assignment transitions.
    if (record.new_k < 1) {
      return Status::InvalidArgument(StrFormat(
          "delta record %lld carries invalid k",
          static_cast<long long>(record_index)));
    }
    SPINNER_ASSIGN_OR_RETURN(
        snapshot.edges,
        ApplyDelta(snapshot.num_vertices, snapshot.edges, record.delta));
    const int64_t old_n = snapshot.num_vertices;
    snapshot.num_vertices += record.delta.num_new_vertices;
    snapshot.assignment.resize(static_cast<size_t>(snapshot.num_vertices),
                               kNoPartition);
    snapshot.num_partitions = record.new_k;
    for (const auto& [vertex, label] : record.label_updates) {
      if (vertex < 0 || vertex >= snapshot.num_vertices || label < 0 ||
          label >= record.new_k) {
        return Status::InvalidArgument(StrFormat(
            "label update out of range in delta record %lld",
            static_cast<long long>(record_index)));
      }
      snapshot.assignment[static_cast<size_t>(vertex)] = label;
    }
    for (int64_t v = old_n; v < snapshot.num_vertices; ++v) {
      if (snapshot.assignment[static_cast<size_t>(v)] == kNoPartition) {
        return Status::InvalidArgument(StrFormat(
            "delta record %lld grew vertices without labeling them",
            static_cast<long long>(record_index)));
      }
    }
    ++record_index;
  }
  // A session's Snapshot() writes its edges in canonical order.
  if (record_index > 0) {
    std::sort(snapshot.edges.begin(), snapshot.edges.end());
  }
  return snapshot;
}

Status IncrementalCheckpointer::RestoreSession(
    const std::string& base_path, PartitioningSession* session) {
  SPINNER_ASSIGN_OR_RETURN(graph_io::SessionSnapshot snapshot,
                           Load(base_path));
  return session->RestoreSnapshot(std::move(snapshot));
}

}  // namespace spinner::stream
