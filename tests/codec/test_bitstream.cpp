#include "codec/bitstream.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace avf::codec {
namespace {

// Reference implementations: the original one-bit-per-iteration writer and
// reader.  The word-level BitWriter/BitReader must agree with them byte for
// byte and call for call, since every compressed stream is built on them.
class RefBitWriter {
 public:
  void write(std::uint32_t value, int nbits) {
    for (int i = 0; i < nbits; ++i) {
      if (bit_ == 0) bytes_.push_back(0);
      if ((value >> i) & 1u) {
        bytes_.back() |= static_cast<std::uint8_t>(1u << bit_);
      }
      bit_ = (bit_ + 1) & 7;
    }
  }

  std::vector<std::uint8_t> take() {
    bit_ = 0;
    return std::move(bytes_);
  }

  std::size_t bit_count() const {
    return bytes_.empty() ? 0
                          : (bytes_.size() - 1) * 8 + (bit_ == 0 ? 8 : bit_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  int bit_ = 0;
};

class RefBitReader {
 public:
  explicit RefBitReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t read(int nbits) {
    std::uint32_t value = 0;
    for (int i = 0; i < nbits; ++i) {
      if (pos_ >= data_.size()) {
        throw std::runtime_error("bitstream: read past end");
      }
      if ((data_[pos_] >> bit_) & 1u) value |= (1u << i);
      if (++bit_ == 8) {
        bit_ = 0;
        ++pos_;
      }
    }
    return value;
  }

  bool exhausted() const { return pos_ >= data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  int bit_ = 0;
};

struct Field {
  std::uint32_t value;  // may carry bits above `nbits`; both must drop them
  int nbits;
};

/// A `lead`-bit field (0 = none) that sets the starting bit offset, then
/// every width 1..32 in a seeded shuffled order, repeated.
std::vector<Field> mixed_fields(int lead, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Field> fields;
  if (lead > 0) {
    fields.push_back({static_cast<std::uint32_t>(rng.next()), lead});
  }
  for (int rep = 0; rep < 4; ++rep) {
    std::vector<int> widths(32);
    for (int w = 1; w <= 32; ++w) widths[static_cast<std::size_t>(w - 1)] = w;
    for (std::size_t i = widths.size(); i > 1; --i) {
      std::swap(widths[i - 1], widths[rng.next_below(i)]);
    }
    for (int w : widths) {
      fields.push_back({static_cast<std::uint32_t>(rng.next()), w});
    }
  }
  return fields;
}

std::uint32_t low_bits(std::uint32_t v, int nbits) {
  return nbits == 32 ? v : v & ((1u << nbits) - 1);
}

TEST(BitWriter, MatchesReferenceAtEveryStartingOffset) {
  for (int lead = 0; lead < 8; ++lead) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("lead=" + std::to_string(lead) +
                   " seed=" + std::to_string(seed));
      BitWriter fast;
      RefBitWriter ref;
      for (const Field& f : mixed_fields(lead, seed)) {
        fast.write(f.value, f.nbits);
        ref.write(f.value, f.nbits);
        ASSERT_EQ(fast.bit_count(), ref.bit_count());
      }
      EXPECT_EQ(fast.take(), ref.take());
      EXPECT_EQ(fast.bit_count(), 0u);
    }
  }
}

TEST(BitWriter, EmptyTakeAndReuse) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.take().empty());
  w.write(0x5, 3);
  EXPECT_EQ(w.bit_count(), 3u);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0x5}));
  w.write(0xABCD, 16);  // after take() the writer starts a fresh stream
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0xCD, 0xAB}));
}

TEST(BitReader, ReadsMatchReferenceAndWrittenValues) {
  for (int lead = 0; lead < 8; ++lead) {
    std::vector<Field> fields = mixed_fields(lead, 10 + lead);
    BitWriter w;
    for (const Field& f : fields) w.write(f.value, f.nbits);
    std::vector<std::uint8_t> bytes = w.take();
    BitReader fast(bytes);
    RefBitReader ref(bytes);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::uint32_t got = fast.read(fields[i].nbits);
      ASSERT_EQ(got, ref.read(fields[i].nbits))
          << "lead " << lead << " field " << i;
      ASSERT_EQ(got, low_bits(fields[i].value, fields[i].nbits));
      ASSERT_EQ(fast.exhausted(), ref.exhausted());
    }
  }
}

/// Index of the read that throws (or nullopt), checking exhausted() before
/// every call and each value read.
template <typename Reader>
std::optional<std::size_t> throwing_call(Reader& reader,
                                         const std::vector<int>& widths,
                                         std::vector<std::uint32_t>& values,
                                         std::vector<bool>& exhausted) {
  for (std::size_t i = 0; i < widths.size(); ++i) {
    exhausted.push_back(reader.exhausted());
    try {
      values.push_back(reader.read(widths[i]));
    } catch (const std::runtime_error&) {
      return i;
    }
  }
  exhausted.push_back(reader.exhausted());
  return std::nullopt;
}

TEST(BitReader, ReadPastEndThrowsAtTheSameCall) {
  util::SplitMix64 rng(77);
  for (std::size_t size = 0; size <= 24; ++size) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::uint8_t> bytes(size);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
      std::vector<int> widths;
      for (std::size_t bits = 0; bits <= size * 8 + 40;) {
        int w = 1 + static_cast<int>(rng.next_below(32));
        widths.push_back(w);
        bits += static_cast<std::size_t>(w);
      }
      BitReader fast(bytes);
      RefBitReader ref(bytes);
      std::vector<std::uint32_t> fast_values, ref_values;
      std::vector<bool> fast_exhausted, ref_exhausted;
      auto fast_throw =
          throwing_call(fast, widths, fast_values, fast_exhausted);
      auto ref_throw = throwing_call(ref, widths, ref_values, ref_exhausted);
      ASSERT_TRUE(ref_throw.has_value());
      EXPECT_EQ(fast_throw, ref_throw) << "size " << size;
      EXPECT_EQ(fast_values, ref_values);
      EXPECT_EQ(fast_exhausted, ref_exhausted);
    }
  }
}

TEST(BitReader, ExactEndIsExhaustedNotPastEnd) {
  std::vector<std::uint8_t> bytes = {0xFF, 0x01};
  BitReader r(bytes);
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.read(9), 0x1FFu);
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.read(7), 0u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.read(1), std::runtime_error);
}

}  // namespace
}  // namespace avf::codec
