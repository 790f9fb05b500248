#include "common/base_log.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fnv.h"
#include "common/string_util.h"

namespace spinner {

namespace {

constexpr size_t kLogHeaderSize = 4 + sizeof(uint32_t) + sizeof(uint64_t);
/// A record's size u64 before its bytes and fnv u64 after them.
constexpr size_t kRecordFrameSize = 2 * sizeof(uint64_t);

template <typename T>
void PutRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T GetRaw(std::span<const uint8_t> bytes, size_t pos) {
  T value;
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  return value;
}

/// Passes every byte through to `sink` and folds it into an FNV-1a digest.
/// It has no buffer of its own: each write reaches `sink` at once.
class ChecksumStreambuf : public std::streambuf {
 public:
  explicit ChecksumStreambuf(std::streambuf* sink) : sink_(sink) {}
  uint64_t digest() const { return digest_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    digest_ = ChecksumFold(
        digest_, {reinterpret_cast<const uint8_t*>(s), static_cast<size_t>(n)});
    return sink_->sputn(s, n);
  }
  int sync() override { return sink_->pubsync(); }

 private:
  std::streambuf* sink_;
  uint64_t digest_ = kFnvOffsetBasis;
};

}  // namespace

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  // file_size fails for anything but a regular file, so a directory or a
  // FIFO is rejected before any buffer is sized or any open could block.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec == std::errc::no_such_file_or_directory) {
    return Status::NotFound("no such file: " + path);
  }
  if (ec) return Status::IOError("not a regular file: " + path);
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(size))) {
    return Status::IOError("cannot read: " + path);
  }
  return bytes;
}

Status ReplaceFile(const std::string& path,
                   const std::function<void(std::ostream&)>& write,
                   uint64_t* checksum) {
  // A rename cannot replace a target that exists but is not a regular
  // file (/dev/stdout, a FIFO); such a target is written in place.
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  const bool in_place = std::filesystem::exists(status) &&
                        !std::filesystem::is_regular_file(status);
  // A symlink is followed: the file it names is replaced, not the link.
  std::string target = path;
  if (!in_place && std::filesystem::is_symlink(path, ec)) {
    target = std::filesystem::canonical(path, ec).string();
    if (ec) target = path;  // dangling: the link itself is replaced
  }
  const std::string written = in_place ? path : target + ".tmp";
  std::ofstream out(written, std::ios::binary | std::ios::trunc);
  if (out) {
    if (checksum == nullptr) {
      write(out);
    } else {
      ChecksumStreambuf tee(out.rdbuf());
      std::ostream checked(&tee);
      write(checked);
      if (!checked) out.setstate(std::ios::badbit);
      *checksum = tee.digest();
    }
    out.close();
  }
  if (in_place) {
    return out ? Status::OK() : Status::IOError("cannot write: " + path);
  }
  if (!out || std::rename(written.c_str(), target.c_str()) != 0) {
    std::remove(written.c_str());
    return Status::IOError("cannot write and rename into place: " + path);
  }
  return Status::OK();
}

Status CreateLog(const std::string& path, const char (&magic)[4],
                 uint32_t version, uint64_t base_fnv) {
  return ReplaceFile(path, [&](std::ostream& out) {
    out.write(magic, sizeof(magic));
    PutRaw(out, version);
    PutRaw(out, base_fnv);
  });
}

Status AppendLogRecord(const std::string& path,
                       std::span<const uint8_t> bytes) {
  std::ofstream log(path, std::ios::binary | std::ios::app);
  if (!log) return Status::IOError("cannot open for append: " + path);
  PutRaw(log, static_cast<uint64_t>(bytes.size()));
  log.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  PutRaw(log, ChecksumBytes(bytes));
  log.close();
  if (log.fail()) return Status::IOError("write error on: " + path);
  return Status::OK();
}

Result<ParsedLog> ParseLog(std::span<const uint8_t> bytes,
                           const char (&magic)[4], uint32_t version) {
  if (bytes.size() < kLogHeaderSize) {
    return Status::IOError("truncated log header");
  }
  if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(StrFormat(
        "bad magic (not a %.4s log)", magic));
  }
  const auto found_version = GetRaw<uint32_t>(bytes, sizeof(magic));
  if (found_version != version) {
    return Status::InvalidArgument(StrFormat(
        "unsupported %.4s log version %u", magic, found_version));
  }
  ParsedLog log;
  log.base_fnv = GetRaw<uint64_t>(bytes, sizeof(magic) + sizeof(version));
  size_t pos = kLogHeaderSize;
  while (pos < bytes.size()) {
    const size_t rest = bytes.size() - pos;
    const uint64_t size =
        rest < kRecordFrameSize ? 0 : GetRaw<uint64_t>(bytes, pos);
    if (rest < kRecordFrameSize || size > rest - kRecordFrameSize) {
      log.tail = Status::IOError(StrFormat(
          "torn log record %zu", log.records.size()));
      break;
    }
    const auto record = bytes.subspan(pos + sizeof(uint64_t), size);
    pos += sizeof(uint64_t) + size;
    if (GetRaw<uint64_t>(bytes, pos) != ChecksumBytes(record)) {
      log.tail = Status::InvalidArgument(StrFormat(
          "checksum mismatch on log record %zu", log.records.size()));
      break;
    }
    pos += sizeof(uint64_t);
    log.records.push_back(record);
  }
  return log;
}

}  // namespace spinner
