// FNV-1a over raw bytes: the byte checksum of the chunked wire layer, the
// shard-slice resume fingerprint and the base-plus-log files.
#ifndef SPINNER_COMMON_FNV_H_
#define SPINNER_COMMON_FNV_H_

#include <cstdint>
#include <span>

namespace spinner {

/// FNV-1a offset basis — the seed of an empty ChecksumBytes fold.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// Folds `bytes` into the running FNV-1a digest `h`: a digest of a byte
/// stream can be built piece by piece.
inline uint64_t ChecksumFold(uint64_t h, std::span<const uint8_t> bytes) {
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a digest of `bytes`.
inline uint64_t ChecksumBytes(std::span<const uint8_t> bytes) {
  return ChecksumFold(kFnvOffsetBasis, bytes);
}

}  // namespace spinner

#endif  // SPINNER_COMMON_FNV_H_
