// Bit-granular I/O over byte buffers, shared by the LZW and Huffman coders.
// Bits are packed LSB-first within each byte.  Both sides move whole words:
// the writer shifts each value into a 64-bit accumulator and appends the
// completed bytes, the reader assembles the bytes a value spans into one
// word.  Widths are limited to [1, 32] bits per call.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace avf::codec {

namespace bitdetail {

/// Low `nbits` bits set, nbits in [1, 32].
constexpr std::uint32_t low_mask(int nbits) {
  return 0xFFFFFFFFu >> (32 - nbits);
}

}  // namespace bitdetail

class BitWriter {
 public:
  /// Append the low `nbits` bits of `value` (nbits in [1, 32]).
  void write(std::uint32_t value, int nbits) {
    assert(nbits >= 1 && nbits <= 32);
    acc_ |= static_cast<std::uint64_t>(value & bitdetail::low_mask(nbits))
            << pending_;
    pending_ += nbits;  // < 8 + 32, so the accumulator never overflows
    while (pending_ >= 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      pending_ -= 8;
    }
  }

  /// The packed bytes, the last one zero-padded; resets the writer.
  std::vector<std::uint8_t> take() {
    if (pending_ > 0) bytes_.push_back(static_cast<std::uint8_t>(acc_));
    acc_ = 0;
    pending_ = 0;
    std::vector<std::uint8_t> out = std::move(bytes_);
    bytes_.clear();
    return out;
  }

  std::size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<std::size_t>(pending_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  // bits not yet in bytes_, LSB first
  int pending_ = 0;        // valid bits in acc_, always < 8 between calls
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `nbits` bits (LSB-first, nbits in [1, 32]); throws
  /// std::runtime_error if fewer than `nbits` bits remain.
  std::uint32_t read(int nbits) {
    assert(nbits >= 1 && nbits <= 32);
    const std::size_t n = static_cast<std::size_t>(nbits);
    if (n > data_.size() * 8 - pos_) {
      throw std::runtime_error("bitstream: read past end");
    }
    const std::size_t first = pos_ >> 3;
    const unsigned shift = static_cast<unsigned>(pos_ & 7);
    const std::size_t span = (shift + n + 7) >> 3;  // bytes touched, <= 5
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < span; ++i) {
      word |= static_cast<std::uint64_t>(data_[first + i]) << (8 * i);
    }
    pos_ += n;
    return static_cast<std::uint32_t>(word >> shift) &
           bitdetail::low_mask(nbits);
  }

  bool exhausted() const { return pos_ >= data_.size() * 8; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;  // bit position
};

}  // namespace avf::codec
