// FNV-1a over raw bytes: the byte checksum of the chunked wire layer, the
// shard-slice resume fingerprint and the base-plus-log files.
#ifndef SPINNER_COMMON_FNV_H_
#define SPINNER_COMMON_FNV_H_

#include <cstdint>
#include <span>

namespace spinner {

/// FNV-1a offset basis — the seed of an empty ChecksumBytes fold.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a digest of `bytes`.
inline uint64_t ChecksumBytes(std::span<const uint8_t> bytes) {
  uint64_t h = kFnvOffsetBasis;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace spinner

#endif  // SPINNER_COMMON_FNV_H_
