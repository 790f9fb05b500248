#include "graph/graph_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/base_log.h"
#include "common/parallel.h"
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

/// Calls `on_line(line_no, line)` for every line of the bytes that
/// `read(dst, capacity)` delivers (it returns the count it put in dst, 0
/// at the end, or -1 on a read error): exactly the lines std::getline
/// yields, '\n' excluded and a final unterminated line included, numbered
/// from first_line + 1. Stops at the first error `on_line` returns.
template <typename Read, typename OnLine>
Status ForEachLine(Read&& read, const std::string& path, int64_t first_line,
                   OnLine&& on_line) {
  std::vector<char> buf(kBlockBytes);
  size_t carry = 0;  // bytes of an unfinished line at the front of buf
  int64_t line_no = first_line;
  for (;;) {
    if (carry == buf.size()) buf.resize(2 * buf.size());
    const int64_t got = read(buf.data() + carry, buf.size() - carry);
    if (got < 0) return Status::IOError("read error on: " + path);
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
  if (carry > 0) {
    return on_line(++line_no, std::string_view(buf.data(), carry));
  }
  return Status::OK();
}

/// ForEachLine over a whole stdio stream (regular file, FIFO or other).
template <typename OnLine>
Status ForEachLine(std::FILE* file, const std::string& path,
                   OnLine&& on_line) {
  return ForEachLine(
      [file](char* dst, size_t capacity) -> int64_t {
        const size_t got = std::fread(dst, 1, capacity, file);
        return got == 0 && std::ferror(file) ? -1
                                             : static_cast<int64_t>(got);
      },
      path, 0, on_line);
}

/// A reader of the bytes [begin, end) of the regular file open as `fd`.
/// A file that shrank reads as ending early.
auto RangeReader(int fd, int64_t begin, int64_t end) {
  return [fd, pos = begin, end](char* dst, size_t capacity) mutable
         -> int64_t {
    const auto want =
        static_cast<size_t>(std::min<int64_t>(end - pos, capacity));
    if (want == 0) return 0;
    ssize_t got;
    do {
      got = ::pread(fd, dst, want, static_cast<off_t>(pos));
    } while (got < 0 && errno == EINTR);
    if (got > 0) pos += got;
    return got;
  };
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

/// The edge of one line, or the reason it has none: OK with *kept false
/// for a skipped line.
Status ParseEdgeLine(const std::string& path, int64_t line_no,
                     std::string_view line, Edge* edge, bool* kept) {
  const LineKind kind = ParsePair(line, &edge->src, &edge->dst);
  *kept = kind == LineKind::kPair;
  if (kind == LineKind::kMalformed ||
      (*kept && (edge->src < 0 || edge->dst < 0))) {
    return MalformedLine(path, line_no, "edge", line);
  }
  return Status::OK();
}

/// Where the chunk that starts at or after byte `from` begins: just past
/// the first '\n' at or after byte from - 1, so every chunk starts a line
/// (the file's size if no '\n' follows).
Result<int64_t> LineStartFrom(int fd, const std::string& path, int64_t from,
                              int64_t size) {
  if (from == 0) return int64_t{0};
  int64_t pos = from - 1;
  auto read = RangeReader(fd, pos, size);
  char buf[4096];  // a line is short: most cuts need one read
  for (;;) {
    const int64_t got = read(buf, sizeof(buf));
    if (got < 0) return Status::IOError("read error on: " + path);
    if (got == 0) return size;
    if (const void* nl = std::memchr(buf, '\n', got)) {
      return pos + (static_cast<const char*>(nl) - buf) + 1;
    }
    pos += got;
  }
}

/// ReadEdgeList over `chunks` parallel byte ranges of a regular file. The
/// ranges are cut at line starts; one pass counts each range's lines, the
/// next parses each into its own slice of one exactly sized list, and the
/// slices are then closed up over the skipped lines. A range reports its
/// first malformed line, so the first failing range's is the file's.
Result<EdgeList> ReadEdgeListChunked(int fd, const std::string& path,
                                     int64_t size, int chunks) {
  std::vector<int64_t> cut(chunks + 1, size);
  cut[0] = 0;
  for (int c = 1; c < chunks; ++c) {
    SPINNER_ASSIGN_OR_RETURN(
        const int64_t start,
        LineStartFrom(fd, path, ChunkBegin(size, chunks, c), size));
    cut[c] = std::max(cut[c - 1], start);
  }
  std::vector<Status> status(chunks);
  std::vector<int64_t> first_line(chunks + 1, 0);
  RunChunks(chunks, [&](int c) {
    int64_t lines = 0;
    status[c] = ForEachLine(RangeReader(fd, cut[c], cut[c + 1]), path, 0,
                            [&](int64_t, std::string_view) {
                              ++lines;
                              return Status::OK();
                            });
    first_line[c + 1] = lines;
  });
  for (const Status& s : status) SPINNER_RETURN_IF_ERROR(s);
  std::partial_sum(first_line.begin(), first_line.end(), first_line.begin());

  // Line i of the file (from 0) parses into slot i at most.
  EdgeList edges(static_cast<size_t>(first_line[chunks]));
  std::vector<int64_t> kept(chunks, 0);
  RunChunks(chunks, [&](int c) {
    Edge* out = edges.data() + first_line[c];
    Edge* const slice_end = edges.data() + first_line[c + 1];
    status[c] = ForEachLine(
        RangeReader(fd, cut[c], cut[c + 1]), path, first_line[c],
        [&](int64_t line_no, std::string_view line) {
          if (out == slice_end) {
            return Status::IOError("file changed while reading: " + path);
          }
          bool is_edge = false;
          SPINNER_RETURN_IF_ERROR(
              ParseEdgeLine(path, line_no, line, out, &is_edge));
          if (is_edge) ++out;
          return Status::OK();
        });
    kept[c] = out - (edges.data() + first_line[c]);
  });
  for (const Status& s : status) SPINNER_RETURN_IF_ERROR(s);
  auto end = edges.begin() + kept[0];
  for (int c = 1; c < chunks; ++c) {
    const auto slice = edges.begin() + first_line[c];
    end = std::copy(slice, slice + kept[c], end);
  }
  edges.erase(end, edges.end());
  return edges;
}

}  // namespace

Result<EdgeList> ReadEdgeList(const std::string& path) {
  return ReadEdgeList(path, 0);
}

Result<EdgeList> ReadEdgeList(const std::string& path, int chunks) {
  const File file = OpenForRead(path);
  if (!file) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  struct stat info {};
  const int fd = ::fileno(file.get());
  if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
    const int64_t size = info.st_size;
    if (chunks <= 0) chunks = ChunkCount(size);
    if (chunks > 1) return ReadEdgeListChunked(fd, path, size, chunks);
  }
  EdgeList edges;
  SPINNER_RETURN_IF_ERROR(ForEachLine(
      file.get(), path, [&](int64_t line_no, std::string_view line) {
        Edge edge;
        bool is_edge = false;
        SPINNER_RETURN_IF_ERROR(
            ParseEdgeLine(path, line_no, line, &edge, &is_edge));
        if (is_edge) edges.push_back(edge);
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
