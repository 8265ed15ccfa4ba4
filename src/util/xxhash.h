// XXH64, the 64-bit xxHash, written from the public specification
// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md).
//
// The integrity checksum of the series store (data/store) and the tier-2
// result-cache segments (explain/cache_tier), and the payload fold of
// explain::HashTensor. It consumes 32 bytes per step in four independent
// lanes, so it runs at memory bandwidth where util/fnv.h's FNV-1a pays one
// dependent multiply per byte. FNV-1a stays wherever its values are pinned
// (corpus seeds, golden digests, option digests, the DCAMWTS1 weight file).
//
// Lanes are read in host byte order. On the little-endian hosts every
// on-disk format here targets, that is the specification's order, so
// digests match the reference library's.

#ifndef DCAM_UTIL_XXHASH_H_
#define DCAM_UTIL_XXHASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dcam {
namespace xxh64_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline uint64_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t lane) {
  acc += lane * kPrime2;
  acc = Rotl(acc, 31);
  return acc * kPrime1;
}

inline uint64_t MergeAccumulator(uint64_t acc, uint64_t lane_acc) {
  acc ^= Round(0, lane_acc);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_internal

/// XXH64 of `len` bytes under `seed`. Not chainable the way Fnv1a is: to
/// fold a prefix digest in, pass it as the seed.
inline uint64_t Xxh64(const void* data, size_t len, uint64_t seed = 0) {
  using namespace xxh64_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t acc;
  if (len >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    acc = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    acc = MergeAccumulator(acc, v1);
    acc = MergeAccumulator(acc, v2);
    acc = MergeAccumulator(acc, v3);
    acc = MergeAccumulator(acc, v4);
  } else {
    acc = seed + kPrime5;
  }
  acc += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) {
    acc ^= Round(0, Read64(p));
    acc = Rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= Read32(p) * kPrime1;
    acc = Rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    acc ^= *p * kPrime5;
    acc = Rotl(acc, 11) * kPrime1;
  }
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace dcam

#endif  // DCAM_UTIL_XXHASH_H_
