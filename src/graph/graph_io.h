// Text I/O: edge lists and partition maps.
//
// Edge list format: one "src dst" pair of whitespace-separated non-negative
// integers per line; lines starting with '#' or '%' are comments; blank
// lines are skipped. Partition map format: one "vertex partition" pair per
// line. These match the formats of common public graph datasets (SNAP).
#ifndef SPINNER_GRAPH_GRAPH_IO_H_
#define SPINNER_GRAPH_GRAPH_IO_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/types.h"

namespace spinner::graph_io {

/// Reads an edge list. Vertices are as numbered in the file; callers can get
/// the vertex count from MaxVertexId()+1. Fails with IOError if the file
/// cannot be opened and InvalidArgument on a malformed line (message names
/// the line number).
Result<EdgeList> ReadEdgeList(const std::string& path);

/// Writes "src dst" per edge, replacing `path` atomically (ReplaceFile,
/// common/base_log.h): a failed write leaves the old file whole.
Status WriteEdgeList(const std::string& path, const EdgeList& edges);

/// Reads a partition map for `num_vertices` vertices. Every vertex must be
/// assigned exactly once; partitions must be non-negative.
Result<std::vector<PartitionId>> ReadPartitioning(const std::string& path,
                                                  int64_t num_vertices);

/// Writes "vertex partition" per vertex, replacing `path` atomically like
/// WriteEdgeList.
Status WritePartitioning(const std::string& path,
                         const std::vector<PartitionId>& assignment);

}  // namespace spinner::graph_io

#endif  // SPINNER_GRAPH_GRAPH_IO_H_
