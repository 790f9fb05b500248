// Test-only reference implementations of graph setup: the original
// line-at-a-time text readers and the sort-based conversions, kept verbatim
// so the differential tests can compare the library's O(m) versions against
// them. CSR results come back as plain arrays (CsrArrays), because a
// CsrGraph can only be built by the library itself; ArraysOf() reads the
// same arrays back out of a CsrGraph through its public accessors.
#ifndef SPINNER_TESTS_SETUP_REFERENCE_H_
#define SPINNER_TESTS_SETUP_REFERENCE_H_

#include <algorithm>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "graph/types.h"

namespace spinner::setup_reference {

/// Everything a CsrGraph stores, as flat arrays.
struct CsrArrays {
  std::vector<int64_t> offsets;
  std::vector<VertexId> targets;
  std::vector<EdgeWeight> weights;
  std::vector<int64_t> weighted_degree;
  int64_t total_arc_weight = 0;

  bool operator==(const CsrArrays&) const = default;
};

inline CsrArrays ArraysOf(const CsrGraph& g) {
  CsrArrays a;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    a.offsets.push_back(g.ArcBegin(v));
    for (VertexId u : g.Neighbors(v)) a.targets.push_back(u);
    for (EdgeWeight w : g.Weights(v)) a.weights.push_back(w);
    a.weighted_degree.push_back(g.WeightedDegree(v));
  }
  a.offsets.push_back(g.NumArcs());
  a.total_arc_weight = g.TotalArcWeight();
  return a;
}

// ---------------------------------------------------------- CSR building

inline Result<CsrArrays> FromEdges(int64_t num_vertices,
                                   const EdgeList& edges,
                                   std::span<const EdgeWeight> weights = {}) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!weights.empty() && weights.size() != edges.size()) {
    return Status::InvalidArgument(StrFormat(
        "weight count %zu does not match edge count %zu", weights.size(),
        edges.size()));
  }
  for (const Edge& e : edges) {
    if (e.src < 0 || e.src >= num_vertices || e.dst < 0 ||
        e.dst >= num_vertices) {
      return Status::InvalidArgument(
          StrFormat("edge (%lld,%lld) out of range [0,%lld)",
                    static_cast<long long>(e.src),
                    static_cast<long long>(e.dst),
                    static_cast<long long>(num_vertices)));
    }
  }

  CsrArrays g;
  g.offsets.assign(num_vertices + 1, 0);
  for (const Edge& e : edges) ++g.offsets[e.src + 1];
  std::partial_sum(g.offsets.begin(), g.offsets.end(), g.offsets.begin());

  const auto m = static_cast<int64_t>(edges.size());
  g.targets.resize(m);
  g.weights.resize(m);
  std::vector<int64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    const int64_t pos = cursor[edges[i].src]++;
    g.targets[pos] = edges[i].dst;
    g.weights[pos] = weights.empty() ? 1u : weights[i];
  }

  for (VertexId v = 0; v < num_vertices; ++v) {
    const int64_t lo = g.offsets[v];
    const int64_t hi = g.offsets[v + 1];
    std::vector<std::pair<VertexId, EdgeWeight>> row;
    row.reserve(hi - lo);
    for (int64_t i = lo; i < hi; ++i) {
      row.emplace_back(g.targets[i], g.weights[i]);
    }
    std::sort(row.begin(), row.end());
    for (int64_t i = lo; i < hi; ++i) {
      g.targets[i] = row[i - lo].first;
      g.weights[i] = row[i - lo].second;
    }
  }

  g.weighted_degree.assign(num_vertices, 0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    int64_t wd = 0;
    for (int64_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
      wd += g.weights[i];
    }
    g.weighted_degree[v] = wd;
    g.total_arc_weight += wd;
  }
  return g;
}

inline Status ValidateRange(int64_t num_vertices, const EdgeList& edges) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!EdgesInRange(edges, num_vertices)) {
    return Status::InvalidArgument(
        StrFormat("edge endpoint out of range [0,%lld)",
                  static_cast<long long>(num_vertices)));
  }
  return Status::OK();
}

inline Result<CsrArrays> ConvertToWeightedUndirected(
    int64_t num_vertices, const EdgeList& directed_edges) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, directed_edges));

  struct Arc {
    VertexId lo;
    VertexId hi;
    uint8_t dir;  // bit 0: lo->hi present, bit 1: hi->lo present

    bool operator<(const Arc& o) const {
      return std::tie(lo, hi) < std::tie(o.lo, o.hi);
    }
  };
  std::vector<Arc> arcs;
  arcs.reserve(directed_edges.size());
  for (const Edge& e : directed_edges) {
    if (e.src == e.dst) continue;
    if (e.src < e.dst) {
      arcs.push_back({e.src, e.dst, 1});
    } else {
      arcs.push_back({e.dst, e.src, 2});
    }
  }
  std::sort(arcs.begin(), arcs.end());

  EdgeList sym_edges;
  std::vector<EdgeWeight> sym_weights;
  sym_edges.reserve(arcs.size() * 2);
  sym_weights.reserve(arcs.size() * 2);
  size_t i = 0;
  while (i < arcs.size()) {
    uint8_t dir = 0;
    const VertexId lo = arcs[i].lo;
    const VertexId hi = arcs[i].hi;
    while (i < arcs.size() && arcs[i].lo == lo && arcs[i].hi == hi) {
      dir |= arcs[i].dir;
      ++i;
    }
    const EdgeWeight w = (dir == 3) ? 2u : 1u;
    sym_edges.push_back({lo, hi});
    sym_weights.push_back(w);
    sym_edges.push_back({hi, lo});
    sym_weights.push_back(w);
  }
  return FromEdges(num_vertices, sym_edges, sym_weights);
}

inline Result<CsrArrays> BuildSymmetric(int64_t num_vertices,
                                        const EdgeList& edges) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, edges));

  EdgeList canonical;
  canonical.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    canonical.push_back(
        {std::min(e.src, e.dst), std::max(e.src, e.dst)});
  }
  SortAndDedup(&canonical);

  EdgeList sym;
  sym.reserve(canonical.size() * 2);
  for (const Edge& e : canonical) {
    sym.push_back(e);
    sym.push_back({e.dst, e.src});
  }
  return FromEdges(num_vertices, sym);
}

// ------------------------------------------------------------ text input

inline bool IsCommentOrBlank(std::string_view line) {
  line = Trim(line);
  return line.empty() || line[0] == '#' || line[0] == '%';
}

inline Result<EdgeList> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  EdgeList edges;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    const auto fields = SplitWhitespace(line);
    int64_t src = 0;
    int64_t dst = 0;
    if (fields.size() < 2 || !ParseInt64(fields[0], &src) ||
        !ParseInt64(fields[1], &dst) || src < 0 || dst < 0) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: malformed edge line: '%s'", path.c_str(),
          static_cast<long long>(line_no), std::string(Trim(line)).c_str()));
    }
    edges.push_back({src, dst});
  }
  if (in.bad()) {
    return Status::IOError("read error on: " + path);
  }
  return edges;
}

inline Result<std::vector<PartitionId>> ReadPartitioning(
    const std::string& path, int64_t num_vertices) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open partition file: " + path);
  }
  std::vector<PartitionId> assignment(num_vertices, kNoPartition);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    const auto fields = SplitWhitespace(line);
    int64_t vertex = 0;
    int64_t part = 0;
    if (fields.size() < 2 || !ParseInt64(fields[0], &vertex) ||
        !ParseInt64(fields[1], &part) || part < 0) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: malformed partition line: '%s'", path.c_str(),
          static_cast<long long>(line_no), std::string(Trim(line)).c_str()));
    }
    if (vertex < 0 || vertex >= num_vertices) {
      return Status::OutOfRange(StrFormat(
          "%s:%lld: vertex %lld outside [0,%lld)", path.c_str(),
          static_cast<long long>(line_no), static_cast<long long>(vertex),
          static_cast<long long>(num_vertices)));
    }
    if (assignment[vertex] != kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: vertex %lld assigned twice", path.c_str(),
          static_cast<long long>(line_no), static_cast<long long>(vertex)));
    }
    assignment[vertex] = static_cast<PartitionId>(part);
  }
  if (in.bad()) {
    return Status::IOError("read error on: " + path);
  }
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (assignment[v] == kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld has no partition in %s", static_cast<long long>(v),
          path.c_str()));
    }
  }
  return assignment;
}

}  // namespace spinner::setup_reference

#endif  // SPINNER_TESTS_SETUP_REFERENCE_H_
