// Golden compressed-stream digests.  Round-trip tests cannot see a codec
// that changes its output bytes yet still decodes them; such a change would
// silently move every compressed size, viz.wire_bytes and simulated time.
// These digests pin the exact bytes LzwCodec and BwtCodec emit on fixed
// inputs.  A mismatch means the stream format changed: that is only
// acceptable as a deliberate format change that re-records the table.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "codec/bwt.hpp"
#include "codec/lzw.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "viz/world.hpp"
#include "wavelet/progressive.hpp"

namespace avf::codec {
namespace {

/// A seeded random walk with repeats: runs for RLE0, context for the BWT,
/// and enough novelty for LZW to widen its codes and clear its dictionary.
Bytes walk_bytes(std::size_t n, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  Bytes out(n);
  std::uint8_t v = 0;
  for (auto& b : out) {
    if (rng.next_below(8) >= 3) {
      v = static_cast<std::uint8_t>(v + rng.next_below(5) - 2);
    }
    b = v;
  }
  return out;
}

Bytes uniform_bytes(std::size_t n, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// The wavelet payload bench/micro_codec measures.
const Bytes& wavelet_payload() {
  static const Bytes data = [] {
    const wavelet::Image& img = viz::cached_image(512, 99);
    wavelet::Pyramid pyr(img, 4);
    wavelet::ProgressiveEncoder enc(pyr, 16);
    return enc.encode_region({256, 256, 512}, 4);
  }();
  return data;
}

struct Golden {
  const char* input;
  std::size_t size;        // ignored for "wavelet" (a fixed payload)
  std::uint64_t lzw;
  std::uint64_t bwt;       // default 64 KiB blocks
  std::uint64_t bwt_4096;  // 4 KiB blocks
};

Bytes golden_input(const Golden& g) {
  std::string kind = g.input;
  if (kind == "walk") return walk_bytes(g.size, g.size + 1);
  if (kind == "uniform") return uniform_bytes(g.size, g.size + 7);
  return wavelet_payload();
}

std::uint64_t digest(const Bytes& b) {
  return util::bulk_hash64(b.data(), b.size());
}

// Recorded from the bit-at-a-time BitWriter and std::sort suffix array.
constexpr Golden kGolden[] = {
    {"walk", 0,
     0x9abd0fb78d661a28ull, 0x9abd0fb78d661a28ull, 0x9abd0fb78d661a28ull},
    {"walk", 1,
     0xb5c41160af117121ull, 0xa98da8b4db57a706ull, 0xa98da8b4db57a706ull},
    {"walk", 4095,
     0x6de5f7cc0d4866f3ull, 0x628488cc668d27ffull, 0x628488cc668d27ffull},
    {"walk", 4096,
     0xe8b1bc6016edf2edull, 0x4f1b92bca4ae840aull, 0x4f1b92bca4ae840aull},
    {"walk", 4097,
     0x02b486e47394b074ull, 0xcaa13167fc720ba9ull, 0xf65982d23571e5aaull},
    {"walk", 65535,
     0x88b9e2bb52053b87ull, 0x734af6eeff235e6full, 0x67eea92932012b44ull},
    {"walk", 65536,
     0xbdaf95d5f2f29afcull, 0xb79eca39374abae0ull, 0x771dbb78a10b4fb3ull},
    {"walk", 65537,
     0x724937d8296c764full, 0x7a8ea5a6b1f3ebc7ull, 0x38ae3e12f1a265a1ull},
    {"walk", 150000,
     0xda1787d4bedbe022ull, 0x010a8547f2845cedull, 0x607e86ffe0fcfd0bull},
    {"uniform", 4097,
     0x8ab78dd0c1e93fe2ull, 0x770599c35b368107ull, 0xd7223377ce78ad4aull},
    {"uniform", 65537,
     0x21d876f3825064b5ull, 0x6c8ee7649fa1f86eull, 0xfada644c3ba4872eull},
    {"wavelet", 0,
     0xee113d75fcba625bull, 0x7ffe8823b66b3895ull, 0x778ff7c7624716d3ull},
};

TEST(CodecGolden, CompressedDigestsMatchRecordedStreams) {
  LzwCodec lzw;
  BwtCodec bwt;
  BwtCodec bwt_small(4096);
  for (const Golden& g : kGolden) {
    Bytes in = golden_input(g);
    SCOPED_TRACE(std::string(g.input) + " n=" + std::to_string(in.size()));
    EXPECT_EQ(digest(lzw.compress(in)), g.lzw);
    EXPECT_EQ(digest(bwt.compress(in)), g.bwt);
    EXPECT_EQ(digest(bwt_small.compress(in)), g.bwt_4096);
  }
}

}  // namespace
}  // namespace avf::codec
