#include "codec/bwt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "codec/lzw.hpp"
#include "util/rng.hpp"

namespace avf::codec {
namespace {

using namespace bwtdetail;

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

Bytes random_bytes(std::size_t n, std::uint64_t seed, int alphabet = 256) {
  util::SplitMix64 rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(alphabet));
  }
  return out;
}

TEST(SuffixArray, Banana) {
  Bytes s = to_bytes("banana");
  // Suffixes of "banana$": $ a$ ana$ anana$ banana$ na$ nana$
  std::vector<std::uint32_t> sa = suffix_array(s);
  EXPECT_EQ(sa, (std::vector<std::uint32_t>{6, 5, 3, 1, 0, 4, 2}));
}

TEST(SuffixArray, EmptyAndSingle) {
  EXPECT_EQ(suffix_array({}).size(), 1u);
  Bytes one = {65};
  EXPECT_EQ(suffix_array(one), (std::vector<std::uint32_t>{1, 0}));
}

// Reference: the original prefix doubling with a comparison sort per round
// (O(n log^2 n)).  The suffix array of data + sentinel is unique, so the
// counting-sort version must return exactly the same permutation.
std::vector<std::uint32_t> reference_suffix_array(BytesView data) {
  std::size_t n = data.size() + 1;
  std::vector<std::uint32_t> sa(n);
  std::vector<std::int32_t> rank(n), tmp(n);
  std::iota(sa.begin(), sa.end(), 0u);
  for (std::size_t i = 0; i + 1 < n; ++i) rank[i] = data[i];
  rank[n - 1] = -1;
  for (std::size_t k = 1;; k *= 2) {
    auto key = [&](std::uint32_t i) {
      std::int32_t second = (i + k < n) ? rank[i + k] : -2;
      return std::pair<std::int32_t, std::int32_t>(rank[i], second);
    };
    std::sort(sa.begin(), sa.end(), [&](std::uint32_t a, std::uint32_t b) {
      return key(a) < key(b);
    });
    tmp[sa[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      tmp[sa[i]] = tmp[sa[i - 1]] + (key(sa[i - 1]) < key(sa[i]) ? 1 : 0);
    }
    rank = tmp;
    if (rank[sa[n - 1]] == static_cast<std::int32_t>(n) - 1) break;
  }
  return sa;
}

Bytes periodic_bytes(std::size_t n, const std::string& period) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(period[i % period.size()]);
  }
  return out;
}

/// The first Fibonacci word (a, ab, aba, abaab, ...) of at least `n` bytes.
Bytes fibonacci_word(std::size_t n) {
  std::string a = "a", b = "ab";
  while (b.size() < n) {
    std::string next = b + a;
    a = std::move(b);
    b = std::move(next);
  }
  return to_bytes(b);
}

TEST(SuffixArray, MatchesReferenceOnSeededRandomInputs) {
  for (int alphabet : {2, 4, 256}) {
    for (std::size_t n : {2u, 3u, 17u, 255u, 1000u, 4096u, 20000u}) {
      Bytes in = random_bytes(n, n * 31 + static_cast<std::size_t>(alphabet),
                              alphabet);
      EXPECT_EQ(suffix_array(in), reference_suffix_array(in))
          << "alphabet " << alphabet << " n " << n;
    }
  }
}

TEST(SuffixArray, MatchesReferenceOnAdversarialInputs) {
  std::vector<std::pair<std::string, Bytes>> cases = {
      {"empty", {}},
      {"one byte", {0}},
      {"one byte 0xff", {255}},
      {"run of 65536", Bytes(65536, 7)},
      {"run of zeros", Bytes(5000, 0)},
      {"period 2", periodic_bytes(20000, "ab")},
      {"period 3", periodic_bytes(20001, "abc")},
      {"period 3 with a repeat", periodic_bytes(10001, "aab")},
      {"fibonacci 17711", fibonacci_word(17711)},
      {"fibonacci 1597", fibonacci_word(1597)},
  };
  for (const auto& [name, in] : cases) {
    EXPECT_EQ(suffix_array(in), reference_suffix_array(in)) << name;
  }
}

TEST(Bwt, ForwardBanana) {
  Bytes s = to_bytes("banana");
  std::uint32_t primary = 0;
  Bytes l = bwt_forward(s, primary);
  EXPECT_EQ(std::string(l.begin(), l.end()), "annbaa");
  EXPECT_EQ(primary, 4u);
}

TEST(Bwt, InverseBanana) {
  Bytes l = to_bytes("annbaa");
  Bytes s = bwt_inverse(l, 4);
  EXPECT_EQ(std::string(s.begin(), s.end()), "banana");
}

TEST(Bwt, RoundTripRandom) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Bytes in = random_bytes(1000 + seed * 137, seed);
    std::uint32_t primary = 0;
    Bytes l = bwt_forward(in, primary);
    EXPECT_EQ(bwt_inverse(l, primary), in);
  }
}

TEST(Bwt, InverseRejectsBadPrimary) {
  Bytes l = to_bytes("annbaa");
  EXPECT_THROW(bwt_inverse(l, 100), std::runtime_error);
}

TEST(Mtf, KnownSequence) {
  Bytes in = {1, 1, 0, 2};
  Bytes enc = mtf_encode(in);
  // 1 at index 1; then 1 at front (0); 0 now at index 1; 2 at index 2.
  EXPECT_EQ(enc, (Bytes{1, 0, 1, 2}));
  EXPECT_EQ(mtf_decode(enc), in);
}

TEST(Mtf, RoundTripRandom) {
  Bytes in = random_bytes(5000, 99);
  EXPECT_EQ(mtf_decode(mtf_encode(in)), in);
}

TEST(Rle0, BijectiveRunDigits) {
  // Runs of zeros become RUNA(0)/RUNB(1) digits of a bijective base-2
  // number, least significant first; a non-zero MTF value v becomes v + 1.
  Bytes mtf = {0, 0, 0, 5, 0, 0, 0, 0, 255};
  EXPECT_EQ(rle0_encode(mtf),
            (std::vector<std::uint16_t>{0, 0, 6, 1, 0, 256}));
  EXPECT_EQ(rle0_decode(rle0_encode(mtf)), mtf);
}

TEST(Rle0, RoundTripRunsAndLiterals) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::SplitMix64 rng(seed);
    Bytes mtf;
    while (mtf.size() < 5000) {
      if (rng.next_below(2) == 0) {
        mtf.insert(mtf.end(), 1 + rng.next_below(300), 0);
      } else {
        mtf.push_back(static_cast<std::uint8_t>(1 + rng.next_below(255)));
      }
    }
    std::vector<std::uint16_t> symbols = rle0_encode(mtf);
    EXPECT_LT(symbols.size(), mtf.size());
    EXPECT_EQ(rle0_decode(symbols), mtf);
  }
}

TEST(Rle0, DecodeRejectsBadStreams) {
  std::vector<std::uint16_t> out_of_range = {2, kRle0Alphabet};
  EXPECT_THROW(rle0_decode(out_of_range), std::runtime_error);
  std::vector<std::uint16_t> long_run = {1, 1, 1};  // 14 zeros
  EXPECT_EQ(rle0_decode(long_run).size(), 14u);
  EXPECT_THROW(rle0_decode(long_run, 13), std::runtime_error);
}

std::vector<std::uint16_t> huffman_round_trip(
    const std::vector<std::uint16_t>& in, int alphabet,
    std::vector<std::uint8_t>& lengths, Bytes& packed) {
  packed = huffman_encode_sym(in, alphabet, lengths);
  return huffman_decode_sym(packed, lengths, in.size());
}

TEST(Huffman, RoundTripSkewed) {
  std::vector<std::uint16_t> in;
  for (int i = 0; i < 1000; ++i) in.push_back(i % 10 == 0 ? 200 : 7);
  std::vector<std::uint8_t> lengths;
  Bytes packed;
  EXPECT_EQ(huffman_round_trip(in, kRle0Alphabet, lengths, packed), in);
  EXPECT_LT(packed.size(), in.size() / 4);
}

TEST(Huffman, SingleSymbolInput) {
  std::vector<std::uint16_t> in(100, 42);
  std::vector<std::uint8_t> lengths;
  Bytes packed;
  EXPECT_EQ(huffman_round_trip(in, kRle0Alphabet, lengths, packed), in);
  EXPECT_EQ(lengths[42], 1);
  EXPECT_EQ(std::count(lengths.begin(), lengths.end(), 0),
            kRle0Alphabet - 1);
}

TEST(Huffman, RoundTripUniform) {
  util::SplitMix64 rng(5);
  std::vector<std::uint16_t> in(10000);
  for (auto& s : in) {
    s = static_cast<std::uint16_t>(rng.next_below(kRle0Alphabet));
  }
  std::vector<std::uint8_t> lengths;
  Bytes packed;
  EXPECT_EQ(huffman_round_trip(in, kRle0Alphabet, lengths, packed), in);
}

TEST(Huffman, RejectsSymbolOutsideAlphabet) {
  std::vector<std::uint16_t> in = {0, 1, 300};
  std::vector<std::uint8_t> lengths;
  EXPECT_THROW(huffman_encode_sym(in, kRle0Alphabet, lengths),
               std::invalid_argument);
}

TEST(Huffman, CodeLongerThan32BitsThrowsLengthError) {
  // Fibonacci frequencies F(1), F(2), ... build a chain: with these tie
  // breaks each merge joins the next leaf to the whole tree so far, so m
  // symbols give an (m - 1)-bit code.
  auto fibonacci_symbols = [](int m) {
    std::vector<std::uint16_t> out;
    std::uint64_t a = 1, b = 1;
    for (int sym = 0; sym < m; ++sym) {
      out.insert(out.end(), a, static_cast<std::uint16_t>(sym));
      std::uint64_t c = a + b;
      a = b;
      b = c;
    }
    return out;
  };
  std::vector<std::uint8_t> lengths;
  EXPECT_THROW(huffman_encode_sym(fibonacci_symbols(34), 34, lengths),
               std::length_error);
  std::vector<std::uint16_t> in = fibonacci_symbols(33);
  Bytes packed;
  EXPECT_EQ(huffman_round_trip(in, 33, lengths, packed), in);
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()), kMaxCodeLength);
}

TEST(BwtCodec, RoundTripEmpty) {
  BwtCodec c;
  EXPECT_TRUE(c.decompress(c.compress({})).empty());
}

TEST(BwtCodec, RoundTripText) {
  BwtCodec c;
  std::string s;
  for (int i = 0; i < 500; ++i) s += "the quick brown fox ";
  Bytes in = to_bytes(s);
  Bytes compressed = c.compress(in);
  EXPECT_LT(compressed.size(), in.size() / 5);
  EXPECT_EQ(c.decompress(compressed), in);
}

TEST(BwtCodec, RoundTripAcrossBlockBoundaries) {
  BwtCodec c(4096);  // small blocks: multiple blocks in one stream
  Bytes in = random_bytes(20000, 3, 16);
  EXPECT_EQ(c.decompress(c.compress(in)), in);
}

TEST(BwtCodec, BeatsLzwOnContextualData) {
  // The paper's premise for compression B: better ratio than A.  BWT
  // exploits byte *context*, so use data with repeated multi-byte motifs
  // (like text or wavelet tiles), not memoryless noise.
  Bytes in;
  util::SplitMix64 rng(11);
  const char* words[] = {"wavelet", "fovea", "resolution", "bandwidth",
                         "adapt"};
  while (in.size() < 60000) {
    const char* w = words[rng.next_below(5)];
    while (*w) in.push_back(static_cast<std::uint8_t>(*w++));
    in.push_back(' ');
  }
  BwtCodec bwt;
  LzwCodec lzw;
  EXPECT_LT(bwt.compress(in).size(), lzw.compress(in).size());
  EXPECT_EQ(bwt.decompress(bwt.compress(in)), in);
}

TEST(BwtCodec, CostsMoreCpuThanLzw) {
  BwtCodec bwt;
  LzwCodec lzw;
  EXPECT_GT(bwt.cost().compress_ops_per_byte,
            5.0 * lzw.cost().compress_ops_per_byte);
  EXPECT_GT(bwt.cost().decompress_ops_per_byte,
            lzw.cost().decompress_ops_per_byte);
}

TEST(BwtCodec, TruncatedStreamThrows) {
  BwtCodec c;
  Bytes in = random_bytes(5000, 21, 8);
  Bytes compressed = c.compress(in);
  compressed.resize(compressed.size() - 10);
  EXPECT_THROW(c.decompress(compressed), std::runtime_error);
}

class BwtSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BwtSizes, RoundTrip) {
  BwtCodec c;
  Bytes in = random_bytes(GetParam(), GetParam() + 17, 32);
  EXPECT_EQ(c.decompress(c.compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BwtSizes,
                         ::testing::Values(1, 2, 7, 255, 4096, 65536, 70000,
                                           150000));

}  // namespace
}  // namespace avf::codec
