// Base-plus-log files: the on-disk design of the session checkpointer
// (stream/checkpoint_log.h). A base file is only ever replaced whole
// (ReplaceFile, also the write path of the worker shard store's one file
// per shard and of the library's other output files); an append-only log
// is bound to it by the base's FNV-1a fingerprint:
//   log    = magic[4] | version u32 | base_fnv u64 | record*
//   record = size u64 | bytes | fnv u64 over bytes
// The base's contents, the records' meaning and the reaction to a damaged
// log tail are the caller's. ReplaceFile and AppendLogRecord are the
// design's only two write points; neither syncs to stable storage.
#ifndef SPINNER_COMMON_BASE_LOG_H_
#define SPINNER_COMMON_BASE_LOG_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace spinner {

/// Reads a whole regular file. NotFound when `path` does not exist;
/// IOError for a directory or any other non-regular file, and for an
/// open or read failure.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Streams `write` into `path` + ".tmp" and renames it over `path`, so a
/// reader sees the old file or the new one, never a torn one. On any
/// failure (open, a stream error after `write`, the rename) the tmp file
/// is removed, `path` is untouched and the result is IOError. A symlink
/// is followed: the file it names is replaced. A `path` that exists but
/// is not a regular file (/dev/stdout, a FIFO) cannot be renamed over and
/// is written in place instead. A non-null `checksum` receives the FNV-1a
/// digest of the bytes `write` streamed, so a caller that binds a log to
/// the file need not read it back.
Status ReplaceFile(const std::string& path,
                   const std::function<void(std::ostream&)>& write,
                   uint64_t* checksum = nullptr);

/// Replaces `path` with an empty log: the header alone.
Status CreateLog(const std::string& path, const char (&magic)[4],
                 uint32_t version, uint64_t base_fnv);

/// Appends one record framing `bytes` to the log at `path`. A crash
/// mid-append leaves a torn tail, which ParseLog reports.
Status AppendLogRecord(const std::string& path,
                       std::span<const uint8_t> bytes);

/// A parsed log. `records` view the bytes passed to ParseLog.
struct ParsedLog {
  uint64_t base_fnv = 0;
  /// The valid records, in order, up to the first damaged one.
  std::vector<std::span<const uint8_t>> records;
  /// What follows the valid records: OK at the end of the bytes, IOError
  /// for a torn record (too short for its frame), InvalidArgument for a
  /// record whose checksum does not match.
  Status tail;
};

/// Parses a log. Fails with IOError on a truncated header and with
/// InvalidArgument on a wrong magic or version; a damaged record is not a
/// failure but ends `records` and sets `tail`.
Result<ParsedLog> ParseLog(std::span<const uint8_t> bytes,
                           const char (&magic)[4], uint32_t version);

}  // namespace spinner

#endif  // SPINNER_COMMON_BASE_LOG_H_
