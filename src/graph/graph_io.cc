#include "graph/graph_io.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/base_log.h"
#include "common/string_util.h"

namespace spinner::graph_io {

namespace {

// Bytes per read. The buffer holds one block plus an unfinished line, so
// memory is bounded by the longest line, not by the file; a line longer
// than the buffer doubles it.
constexpr size_t kBlockBytes = size_t{1} << 20;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File OpenForRead(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  // Unbuffered: each fread of a block goes straight into the scanner's
  // buffer instead of through stdio's.
  if (file) std::setvbuf(file.get(), nullptr, _IONBF, 0);
  return file;
}

/// Calls `on_line(line_no, line)` for every line of `file`: exactly the
/// lines std::getline yields, '\n' excluded and a final unterminated line
/// included. Stops at the first error `on_line` returns.
template <typename OnLine>
Status ForEachLine(std::FILE* file, const std::string& path,
                   OnLine&& on_line) {
  std::vector<char> buf(kBlockBytes);
  size_t carry = 0;  // bytes of an unfinished line at the front of buf
  int64_t line_no = 0;
  for (;;) {
    if (carry == buf.size()) buf.resize(2 * buf.size());
    const size_t got =
        std::fread(buf.data() + carry, 1, buf.size() - carry, file);
    if (got == 0) break;
    const char* line = buf.data();
    const char* const end = line + carry + got;
    const char* scan = line + carry;  // the carried bytes hold no '\n'
    while (const void* nl = std::memchr(scan, '\n', end - scan)) {
      const char* const stop = static_cast<const char*>(nl);
      SPINNER_RETURN_IF_ERROR(
          on_line(++line_no, std::string_view(line, stop - line)));
      line = scan = stop + 1;
    }
    carry = end - line;
    std::memmove(buf.data(), line, carry);
  }
  if (std::ferror(file)) {
    return Status::IOError("read error on: " + path);
  }
  if (carry > 0) {
    return on_line(++line_no, std::string_view(buf.data(), carry));
  }
  return Status::OK();
}

enum class LineKind { kSkip, kPair, kMalformed };

bool IsBlank(char c) { return c == ' ' || c == '\t'; }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Parses a plain run of at most 31 digits at `*p` (ParseInt64's length
/// limit) and advances past it; false on anything else or on overflow.
bool ParseDigits(const char** p, const char* end, int64_t* out) {
  if (*p == end || !IsDigit(**p)) return false;
  const auto [stop, ec] = std::from_chars(*p, end, *out);
  if (ec != std::errc() || stop - *p > 31) return false;
  *p = stop;
  return true;
}

/// The common line shape, "digits blanks digits", optionally followed by
/// blank-separated extra columns or a CR, parsed without allocating.
/// Returns false to leave every other line to the general rules.
bool ParsePairFast(const char* p, const char* end, int64_t* a, int64_t* b) {
  while (p != end && IsBlank(*p)) ++p;
  if (!ParseDigits(&p, end, a) || p == end || !IsBlank(*p)) return false;
  while (p != end && IsBlank(*p)) ++p;
  if (!ParseDigits(&p, end, b)) return false;
  return p == end || IsBlank(*p) || (*p == '\r' && p + 1 == end);
}

/// The full line language: isspace-trimmed lines that are empty or start
/// with '#' or '%' are skipped; otherwise the first two space/tab-separated
/// fields must each be an integer as ParseInt64 reads it (surrounding
/// isspace, a sign, no overflow). Further fields are ignored. A line the
/// fast path accepts reads the same under these rules.
LineKind ParsePair(std::string_view line, int64_t* a, int64_t* b) {
  if (ParsePairFast(line.data(), line.data() + line.size(), a, b)) {
    return LineKind::kPair;
  }
  const std::string_view trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') {
    return LineKind::kSkip;
  }
  const std::vector<std::string_view> fields = SplitWhitespace(line);
  return fields.size() >= 2 && ParseInt64(fields[0], a) &&
                 ParseInt64(fields[1], b)
             ? LineKind::kPair
             : LineKind::kMalformed;
}

Status MalformedLine(const std::string& path, int64_t line_no,
                     const char* what, std::string_view line) {
  return Status::InvalidArgument(StrFormat(
      "%s:%lld: malformed %s line: '%s'", path.c_str(),
      static_cast<long long>(line_no), what,
      std::string(Trim(line)).c_str()));
}

}  // namespace

Result<EdgeList> ReadEdgeList(const std::string& path) {
  const File file = OpenForRead(path);
  if (!file) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  EdgeList edges;
  SPINNER_RETURN_IF_ERROR(ForEachLine(
      file.get(), path, [&](int64_t line_no, std::string_view line) {
        int64_t src = 0;
        int64_t dst = 0;
        const LineKind kind = ParsePair(line, &src, &dst);
        if (kind == LineKind::kSkip) return Status::OK();
        if (kind == LineKind::kMalformed || src < 0 || dst < 0) {
          return MalformedLine(path, line_no, "edge", line);
        }
        edges.push_back({src, dst});
        return Status::OK();
      }));
  return edges;
}

Status WriteEdgeList(const std::string& path, const EdgeList& edges) {
  return ReplaceFile(path, [&](std::ostream& out) {
    for (const Edge& e : edges) {
      out << e.src << ' ' << e.dst << '\n';
    }
  });
}

Result<std::vector<PartitionId>> ReadPartitioning(const std::string& path,
                                                  int64_t num_vertices) {
  const File file = OpenForRead(path);
  if (!file) {
    return Status::IOError("cannot open partition file: " + path);
  }
  std::vector<PartitionId> assignment(num_vertices, kNoPartition);
  SPINNER_RETURN_IF_ERROR(ForEachLine(
      file.get(), path, [&](int64_t line_no, std::string_view line) {
        int64_t vertex = 0;
        int64_t part = 0;
        const LineKind kind = ParsePair(line, &vertex, &part);
        if (kind == LineKind::kSkip) return Status::OK();
        if (kind == LineKind::kMalformed || part < 0) {
          return MalformedLine(path, line_no, "partition", line);
        }
        if (vertex < 0 || vertex >= num_vertices) {
          return Status::OutOfRange(StrFormat(
              "%s:%lld: vertex %lld outside [0,%lld)", path.c_str(),
              static_cast<long long>(line_no),
              static_cast<long long>(vertex),
              static_cast<long long>(num_vertices)));
        }
        if (assignment[vertex] != kNoPartition) {
          return Status::InvalidArgument(StrFormat(
              "%s:%lld: vertex %lld assigned twice", path.c_str(),
              static_cast<long long>(line_no),
              static_cast<long long>(vertex)));
        }
        assignment[vertex] = static_cast<PartitionId>(part);
        return Status::OK();
      }));
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (assignment[v] == kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld has no partition in %s", static_cast<long long>(v),
          path.c_str()));
    }
  }
  return assignment;
}

Status WritePartitioning(const std::string& path,
                         const std::vector<PartitionId>& assignment) {
  return ReplaceFile(path, [&](std::ostream& out) {
    for (size_t v = 0; v < assignment.size(); ++v) {
      out << v << ' ' << assignment[v] << '\n';
    }
  });
}

}  // namespace spinner::graph_io
