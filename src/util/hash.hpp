// Seeded, deterministic 128-bit content hashing for the content-addressed
// stores (viz::TileStore keys, pyramid content fingerprints).
//
// Two independent FNV-1a-style 64-bit lanes run over the same byte stream
// with different offsets and odd multipliers, then each lane is finalized
// with a splitmix64-style avalanche and the lanes are cross-folded.  The
// result is a 128-bit digest that is:
//
//  - deterministic: a pure function of (seed, bytes) — no wall clock, no
//    std::random_device, no ASLR-dependent state — so run-twice equality
//    and cross-platform stability hold (multi-byte updates fold bytes
//    LSB-first regardless of host endianness);
//  - seeded: the seed acts as a domain tag, so region-payload keys,
//    compressed-chunk keys, and pyramid fingerprints live in disjoint key
//    spaces even when their byte streams coincide;
//  - incremental: callers fold fields one at a time (update_u16 per
//    TileRef coordinate, ...) instead of materializing a key buffer — the
//    whole point for hot-path lookups that previously built a std::string
//    per request.
//
// 128 bits make accidental collisions astronomically unlikely, and
// viz::TileStore's verify_on_hit mode byte-compares hit payloads as a
// debug-time guard for the remaining possibility.
//
// Two byte-stream helpers sit beside it:
//
//  - fnv1a64: plain 64-bit FNV-1a, byte at a time, continuing from a
//    caller-held state.  The fingerprints that predate Hasher128 (decision
//    and prediction cache keys, fleet and result fingerprints) are defined
//    on it byte for byte.
//  - bulk_hash64: a seeded 64-bit hash for large buffers (whole reply
//    payloads).  It reads 8-byte little-endian words into four independent
//    multiply-rotate lanes (one 32-byte stripe per step, so the lanes
//    pipeline), folds leftover words into one accumulator and the last
//    0-7 bytes one at a time, and avalanches the result (xxHash64's lane
//    structure and primes; the tail differs, so digests are not XXH64's).
//    Like Hasher128 it is a pure function of (seed, bytes) on any host
//    endianness.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace avf::util {

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a over `n` bytes in memory order, continuing from state `h`
/// (start a fresh digest from kFnv1a64Offset).
inline std::uint64_t fnv1a64(std::uint64_t h, const void* data,
                             std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnv1a64Prime;
  }
  return h;
}

namespace hashdetail {

inline constexpr std::uint64_t kBulkP1 = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kBulkP2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kBulkP3 = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kBulkP4 = 0x85ebca77c2b2ae63ULL;
inline constexpr std::uint64_t kBulkP5 = 0x27d4eb2f165667c5ULL;

/// The 8 bytes at `p` as a little-endian word, on any host.
inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  }
  return v;
}

inline std::uint64_t bulk_round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kBulkP2;
  return std::rotl(acc, 31) * kBulkP1;
}

inline std::uint64_t bulk_merge(std::uint64_t h, std::uint64_t lane) {
  h ^= bulk_round(0, lane);
  return h * kBulkP1 + kBulkP4;
}

}  // namespace hashdetail

/// Seeded 64-bit hash of `n` bytes, read a word at a time (see the file
/// comment).  Chain buffers by passing the previous digest as the seed.
inline std::uint64_t bulk_hash64(const void* data, std::size_t n,
                                 std::uint64_t seed = 0) {
  using namespace hashdetail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kBulkP1 + kBulkP2;
    std::uint64_t v2 = seed + kBulkP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kBulkP1;
    do {
      v1 = bulk_round(v1, load_le64(p));
      v2 = bulk_round(v2, load_le64(p + 8));
      v3 = bulk_round(v3, load_le64(p + 16));
      v4 = bulk_round(v4, load_le64(p + 24));
      p += 32;
    } while (end - p >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = bulk_merge(h, v1);
    h = bulk_merge(h, v2);
    h = bulk_merge(h, v3);
    h = bulk_merge(h, v4);
  } else {
    h = seed + kBulkP5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h ^= bulk_round(0, load_le64(p));
    h = std::rotl(h, 27) * kBulkP1 + kBulkP4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kBulkP5;
    h = std::rotl(h, 11) * kBulkP1;
  }
  h ^= h >> 33;
  h *= kBulkP2;
  h ^= h >> 29;
  h *= kBulkP3;
  h ^= h >> 32;
  return h;
}

/// 128-bit digest.  Ordered so it can key ordered containers in tests;
/// unordered containers should hash with `lo` (already avalanche-mixed).
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;
};

class Hasher128 {
 public:
  explicit Hasher128(std::uint64_t seed = 0)
      : lo_(kOffsetLo ^ seed), hi_(kOffsetHi ^ (kGolden * (seed + 1))) {}

  Hasher128& update(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) fold(bytes[i]);
    return *this;
  }

  Hasher128& update_u8(std::uint8_t v) {
    fold(v);
    return *this;
  }
  Hasher128& update_u16(std::uint16_t v) { return fold_le(v, 2); }
  Hasher128& update_u32(std::uint32_t v) { return fold_le(v, 4); }
  Hasher128& update_u64(std::uint64_t v) { return fold_le(v, 8); }

  Hash128 finish() const {
    // Avalanche each lane, then cross-fold so the pair never degenerates
    // to two correlated copies of the same 64-bit state.
    std::uint64_t a = mix(lo_);
    std::uint64_t b = mix(hi_ + kGolden * a);
    return Hash128{b, mix(a ^ (b >> 32))};
  }

  /// One-shot convenience over a contiguous buffer.
  static Hash128 of(const void* data, std::size_t n, std::uint64_t seed = 0) {
    Hasher128 h(seed);
    h.update(data, n);
    return h.finish();
  }

 private:
  static constexpr std::uint64_t kOffsetLo = kFnv1a64Offset;
  static constexpr std::uint64_t kOffsetHi = 0x84222325cbf29ce4ULL;
  static constexpr std::uint64_t kPrimeLo = kFnv1a64Prime;
  static constexpr std::uint64_t kPrimeHi = 0x9e3779b97f4a7c15ULL | 1ULL;
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  void fold(std::uint8_t b) {
    lo_ = (lo_ ^ b) * kPrimeLo;
    hi_ = (hi_ ^ b) * kPrimeHi;
  }

  /// Fold an integer LSB-first: byte order is part of the digest contract,
  /// independent of host endianness.
  Hasher128& fold_le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) fold(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  static std::uint64_t mix(std::uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

  std::uint64_t lo_;
  std::uint64_t hi_;
};

}  // namespace avf::util
