// Test-only writers of the version 1 shard formats: the SPSL slice with
// i64 targets and u32 weights, and the SPSB shard-store base that wraps
// it. The library writes only version 2; these let tests hand its readers
// old bytes and check that they are turned away.
#ifndef SPINNER_TESTS_SLICE_V1_REFERENCE_H_
#define SPINNER_TESTS_SLICE_V1_REFERENCE_H_

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "graph/sharded_store.h"

namespace spinner::slice_v1_reference {

/// `shard` in the SPSL version 1 layout:
///   "SPSL" | 1 u32 | begin i64 | end i64 | num_arcs i64 |
///   offsets i64[] | targets i64[] | weights u32[] | weighted_degree i64[]
inline std::vector<uint8_t> EncodeSlice(const ShardedGraphStore::Shard& shard) {
  std::vector<uint8_t> out = {'S', 'P', 'S', 'L'};
  const auto put = [&out](const auto value) {
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(value));
  };
  put(uint32_t{1});
  put(int64_t{shard.begin});
  put(int64_t{shard.end});
  put(shard.NumArcs());
  for (const int64_t offset : shard.offsets) put(offset);
  for (const auto target : shard.targets) put(static_cast<int64_t>(target));
  for (const auto weight : shard.weights) put(static_cast<uint32_t>(weight));
  for (const int64_t degree : shard.weighted_degree) put(degree);
  return out;
}

/// Writes an SPSB version 1 base holding `slice`:
///   "SPSB" | 1 u32 | slice bytes | fnv u64 over the slice bytes
inline void WriteBase(const std::string& path,
                      std::span<const uint8_t> slice) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const char header[8] = {'S', 'P', 'S', 'B', 1, 0, 0, 0};
  out.write(header, sizeof(header));
  out.write(reinterpret_cast<const char*>(slice.data()),
            static_cast<std::streamsize>(slice.size()));
  const uint64_t fnv = ChecksumBytes(slice);
  out.write(reinterpret_cast<const char*>(&fnv), sizeof(fnv));
}

}  // namespace spinner::slice_v1_reference

#endif  // SPINNER_TESTS_SLICE_V1_REFERENCE_H_
