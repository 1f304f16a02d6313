// util/hash.hpp byte-stream helpers: fnv1a64 reproduces standard FNV-1a,
// and bulk_hash64 is pinned by golden digests for every tail length, by
// avalanche/seed sensitivity, and by a byte-at-a-time reference that
// assembles each word LSB-first (the host-endianness contract).
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

namespace avf::util {
namespace {

std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  return buf;
}

/// bulk_hash64 written without word loads: every word is assembled from
/// its bytes LSB-first, so agreement pins the little-endian definition
/// independently of the host's byte order and of memcpy.
std::uint64_t reference_bulk_hash64(const unsigned char* p, std::size_t n,
                                    std::uint64_t seed) {
  constexpr std::uint64_t P1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t P2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t P3 = 0x165667b19e3779f9ULL;
  constexpr std::uint64_t P4 = 0x85ebca77c2b2ae63ULL;
  constexpr std::uint64_t P5 = 0x27d4eb2f165667c5ULL;
  auto word = [p](std::size_t at) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(p[at + b]) << (8 * b);
    }
    return v;
  };
  auto mix_round = [](std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * P2, 31) * P1;
  };
  std::size_t at = 0;
  std::uint64_t h;
  if (n >= 32) {
    std::array<std::uint64_t, 4> v = {seed + P1 + P2, seed + P2, seed,
                                      seed - P1};
    for (; n - at >= 32; at += 32) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        v[lane] = mix_round(v[lane], word(at + 8 * lane));
      }
    }
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (std::uint64_t lane : v) h = (h ^ mix_round(0, lane)) * P1 + P4;
  } else {
    h = seed + P5;
  }
  h += n;
  for (; n - at >= 8; at += 8) {
    h = std::rotl(h ^ mix_round(0, word(at)), 27) * P1 + P4;
  }
  for (; at < n; ++at) h = std::rotl(h ^ (p[at] * P5), 11) * P1;
  h = (h ^ (h >> 33)) * P2;
  h = (h ^ (h >> 29)) * P3;
  return h ^ (h >> 32);
}

TEST(Fnv1a64, MatchesStandardVectors) {
  auto of = [](std::string_view s) {
    return fnv1a64(kFnv1a64Offset, s.data(), s.size());
  };
  EXPECT_EQ(of(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(of("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(of("foobar"), 0x85944171f73967e8ULL);
  // Continuing from a prior state equals hashing the concatenation.
  EXPECT_EQ(fnv1a64(of("foo"), "bar", 3), of("foobar"));
}

TEST(BulkHash64, GoldenDigestsCoverEveryTailLength) {
  // Lengths 0..65 take every path: the sub-stripe start, 0-3 leftover
  // words after 0, 1 or 2 stripes, and 0-7 tail bytes.
  constexpr std::array<std::uint64_t, 66> kGolden = {
    0x4e167d2026e7365cULL, 0xf2a28448aed73b1aULL, 0x447a5e5e1ce82013ULL,
    0x318abf3357d6ed35ULL, 0xd24584c8016aca60ULL, 0x441ca0bd6dd8e850ULL,
    0xc78245a767a819eaULL, 0xe549405983ced380ULL, 0x3ccf0adef052a54fULL,
    0xff3e8a7194c82d27ULL, 0xdab7f275bf2d2851ULL, 0x228c80e028d855d8ULL,
    0xeab02ee6f3cf395bULL, 0x829385ef658aea83ULL, 0xc1d69fb84c2d456dULL,
    0x1a7b100af0e51ca2ULL, 0x1fa60f136df821b4ULL, 0x68f7cf94f98e8fbfULL,
    0x41dfd1d1112bbee5ULL, 0xce9e96a108f325caULL, 0x8643ad27b3f19d73ULL,
    0x6d52c8fe09f4be6fULL, 0x77178f05510972d9ULL, 0xc76c627a5d8ec838ULL,
    0x990d5d0408b43f8bULL, 0xb19fdb69e751d952ULL, 0x470bac2a7f313e36ULL,
    0x8fec0171e3056b64ULL, 0x0df12d2c30c67e60ULL, 0xa2e80c9401932756ULL,
    0x4415c31ae5faead7ULL, 0x9edb953f4d9b97a5ULL, 0x477ab382cd80eeb3ULL,
    0xe7099fe35a60933aULL, 0x52002c9612a77e65ULL, 0x9f5e993d19d75d59ULL,
    0x11f0d54d6a090df2ULL, 0x78a89689f424be31ULL, 0xda8b912695a16fecULL,
    0x20456b37c44ef2e8ULL, 0xb8df5a27066d217bULL, 0xa8b1957344e65a4dULL,
    0xf32dce57731753b1ULL, 0xcdef439c16bcfebeULL, 0xd0c4649327ddebb7ULL,
    0x97496f875aa29aa3ULL, 0x2aecd00c29f30622ULL, 0xfbd807879d4a5146ULL,
    0xe0cbc6abf356791bULL, 0x74690b6d17e41b3fULL, 0xa38cafb3a07de0bcULL,
    0xd29fc4f75d7c55efULL, 0x79606e8a39d1e14bULL, 0x7783125879ad997fULL,
    0x5bdb076d74b0a667ULL, 0x9f0837da3b1a3e08ULL, 0xaa7435b61eed966eULL,
    0x734c60370f93a379ULL, 0x1934df711a0ef197ULL, 0x7907cb92afca10b2ULL,
    0xa72432eb99c0e359ULL, 0x5dadb6aebffbfb5fULL, 0xf68d91902bcb429cULL,
    0x1434365b642718aaULL, 0x4ddec93ef73662deULL, 0x84722be081583a78ULL,
  };
  std::vector<unsigned char> buf = pattern(kGolden.size() - 1);
  for (std::size_t n = 0; n < kGolden.size(); ++n) {
    EXPECT_EQ(bulk_hash64(buf.data(), n, 0x5eed), kGolden[n]) << "n=" << n;
  }
}

TEST(BulkHash64, EverySingleBitFlipChangesTheDigest) {
  for (std::size_t n : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 200u}) {
    std::vector<unsigned char> buf = pattern(n);
    const std::uint64_t base = bulk_hash64(buf.data(), n, 1);
    for (std::size_t at = 0; at < n; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[at] ^= static_cast<unsigned char>(1u << bit);
        EXPECT_NE(bulk_hash64(buf.data(), n, 1), base)
            << "n=" << n << " byte=" << at << " bit=" << bit;
        buf[at] ^= static_cast<unsigned char>(1u << bit);
      }
    }
  }
}

TEST(BulkHash64, SeedChangesTheDigest) {
  std::vector<unsigned char> buf = pattern(100);
  for (std::size_t n = 0; n <= buf.size(); ++n) {
    const std::uint64_t a = bulk_hash64(buf.data(), n, 0);
    EXPECT_NE(a, bulk_hash64(buf.data(), n, 1)) << "n=" << n;
    EXPECT_NE(a, bulk_hash64(buf.data(), n, a)) << "n=" << n;
  }
}

TEST(BulkHash64, WordPathMatchesLittleEndianBytePath) {
  // Unaligned starts too: the word loads must not depend on alignment.
  std::vector<unsigned char> buf = pattern(300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 300; ++n) {
      const unsigned char* p = buf.data() + offset;
      EXPECT_EQ(bulk_hash64(p, n, 0x1234),
                reference_bulk_hash64(p, n, 0x1234))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST(BulkHash64, LengthIsPartOfTheDigest) {
  // Zero bytes of different lengths (including none) all differ.
  std::vector<unsigned char> zeros(64, 0);
  for (std::size_t n = 1; n <= zeros.size(); ++n) {
    EXPECT_NE(bulk_hash64(zeros.data(), n, 0),
              bulk_hash64(zeros.data(), n - 1, 0))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace avf::util
