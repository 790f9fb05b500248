#include "stream/checkpoint_log.h"

#include <algorithm>
#include <utility>

#include "common/base_log.h"
#include "common/fnv.h"
#include "common/string_util.h"

namespace spinner::stream {

namespace {

constexpr char kLogMagic[4] = {'S', 'P', 'D', 'G'};
/// Version 2 adopted the shared record framing (common/base_log.h).
constexpr uint32_t kLogVersion = 2;

}  // namespace

IncrementalCheckpointer::IncrementalCheckpointer(std::string base_path,
                                                 Options options)
    : base_path_(std::move(base_path)), options_(options) {
  if (options_.compact_after_records < 1) options_.compact_after_records = 1;
}

Status IncrementalCheckpointer::WriteBase(
    const PartitioningSession& session) {
  // The log is bound to the FNV-1a digest of the base file, taken as the
  // bytes stream out rather than read back.
  uint64_t fingerprint = 0;
  SPINNER_RETURN_IF_ERROR(session.Snapshot(base_path_, &fingerprint));
  SPINNER_RETURN_IF_ERROR(
      CreateLog(log_path(), kLogMagic, kLogVersion, fingerprint));
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
  SPINNER_RETURN_IF_ERROR(AppendLogRecord(log_path(), bytes));
  ++records_since_base_;
  last_assignment_ = session.assignment();
  return Status::OK();
}

Result<graph_io::SessionSnapshot> IncrementalCheckpointer::Load(
    const std::string& base_path) {
  // One read of the base serves both its decode and the fingerprint the
  // log must be bound to; the bytes go before the replay.
  graph_io::SessionSnapshot snapshot;
  uint64_t base_fnv = 0;
  {
    SPINNER_ASSIGN_OR_RETURN(const std::vector<uint8_t> base,
                             ReadFileBytes(base_path));
    SPINNER_ASSIGN_OR_RETURN(snapshot, graph_io::DecodeSessionSnapshot(base));
    base_fnv = ChecksumBytes(base);
  }

  const std::string log_path = base_path + ".dlog";
  auto log_bytes = ReadFileBytes(log_path);
  if (log_bytes.status().code() == StatusCode::kNotFound) {
    return snapshot;  // base only: nothing was appended
  }
  if (!log_bytes.ok()) return log_bytes.status();
  SPINNER_ASSIGN_OR_RETURN(ParsedLog log,
                           ParseLog(*log_bytes, kLogMagic, kLogVersion));
  if (base_fnv != log.base_fnv) {
    return Status::InvalidArgument(
        "delta log was appended against a different base image: " +
        log_path);
  }
  // A torn or corrupt record fails the load: a checkpoint restores the
  // state it recorded last, or nothing.
  SPINNER_RETURN_IF_ERROR(log.tail);

  for (size_t i = 0; i < log.records.size(); ++i) {
    const auto record_index = static_cast<long long>(i);
    size_t pos = 0;
    SPINNER_ASSIGN_OR_RETURN(
        graph_io::DeltaLogRecord record,
        graph_io::DecodeDeltaLogRecord(log.records[i], &pos));
    if (pos != log.records[i].size()) {
      return Status::InvalidArgument(StrFormat(
          "trailing bytes in delta record %lld", record_index));
    }
    // Replay: the same ApplyDelta fold the live session used, then the
    // recorded assignment transitions.
    if (record.new_k < 1) {
      return Status::InvalidArgument(
          StrFormat("delta record %lld carries invalid k", record_index));
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
            record_index));
      }
      snapshot.assignment[static_cast<size_t>(vertex)] = label;
    }
    for (int64_t v = old_n; v < snapshot.num_vertices; ++v) {
      if (snapshot.assignment[static_cast<size_t>(v)] == kNoPartition) {
        return Status::InvalidArgument(StrFormat(
            "delta record %lld grew vertices without labeling them",
            record_index));
      }
    }
  }
  // A session's Snapshot() writes its edges in canonical order.
  if (!log.records.empty()) {
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
