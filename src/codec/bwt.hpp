// Bzip2-style block compressor — the paper's "compression B".
//
// Pipeline per block (default 64 KiB): Burrows-Wheeler transform (suffix
// array by prefix doubling with counting sorts), move-to-front, bzip2 RLE0
// zero-run coding, canonical Huffman over the 257-symbol RLE0 alphabet.
// Substantially better ratio than LZW on the wavelet-coefficient data the
// visualization application ships, at a much higher CPU cost — exactly the
// trade-off that produces the Figure 6(a) crossover.
//
// Format (all integers u32 little-endian):
//   original_len
//   per block: block_len | primary_index | sym_count | packed_len |
//              257 x 1-byte code lengths | packed_len bytes of LSB-first
//              packed Huffman codes (each code MSB-first in stream order)
#pragma once

#include "codec/codec.hpp"

namespace avf::codec {

class BwtCodec final : public Codec {
 public:
  explicit BwtCodec(std::size_t block_size = 64 * 1024)
      : block_size_(block_size) {}

  std::string_view name() const override { return "bwt"; }
  Bytes compress(BytesView input) const override;
  Bytes decompress(BytesView input) const override;
  // ~1 MB/s compress, ~4.7 MB/s decompress on a 450 Mops host — bzip2-class
  // throughput on late-90s hardware (and roughly 10x LZW, which is what
  // creates the Figure 6(a) crossover inside the 50-500 KBps window).
  CostModel cost() const override { return {450.0, 95.0}; }

  std::size_t block_size() const { return block_size_; }

 private:
  std::size_t block_size_;
};

namespace bwtdetail {

/// Burrows-Wheeler transform of `block`; returns the transformed bytes and
/// sets `primary_index` to the row of the original string.
Bytes bwt_forward(BytesView block, std::uint32_t& primary_index);

/// Inverse BWT.
Bytes bwt_inverse(BytesView last_column, std::uint32_t primary_index);

/// Move-to-front encode/decode (alphabet of 256 byte values).
Bytes mtf_encode(BytesView input);
Bytes mtf_decode(BytesView input);

/// bzip2-style zero-run coding of the MTF stream: symbols 0/1 are RUNA/RUNB
/// digits of a bijective base-2 run length; MTF value v >= 1 maps to symbol
/// v + 1.  Alphabet size = 257.
constexpr int kRle0Alphabet = 257;
std::vector<std::uint16_t> rle0_encode(BytesView mtf);
/// `max_output` bounds the decoded size (a corrupted run-length symbol
/// sequence could otherwise claim astronomically long zero runs).
Bytes rle0_decode(std::span<const std::uint16_t> symbols,
                  std::size_t max_output = SIZE_MAX);

/// Longest Huffman code the encoder emits: one BitWriter::write per code.
/// A code of length L needs a symbol total of at least F(L + 2) (Fibonacci),
/// so exceeding 32 bits takes F(35) ~ 9.2 M symbols in one block, far above
/// the 64 KiB default block.
constexpr int kMaxCodeLength = 32;

/// Canonical Huffman over an arbitrary small symbol alphabet (used with the
/// RLE0 stream).  `lengths_out` receives `alphabet` code lengths (0 = symbol
/// absent); decode needs the same table.  Throws std::length_error if a code
/// would exceed kMaxCodeLength.
Bytes huffman_encode_sym(std::span<const std::uint16_t> symbols, int alphabet,
                         std::vector<std::uint8_t>& lengths_out);
std::vector<std::uint16_t> huffman_decode_sym(
    BytesView bits, std::span<const std::uint8_t> lengths,
    std::size_t symbol_count);

/// Suffix array of `data` (treating it as ending with a unique smallest
/// sentinel) by prefix doubling with a counting sort per round; O(n log n).
std::vector<std::uint32_t> suffix_array(BytesView data);

}  // namespace bwtdetail

}  // namespace avf::codec
