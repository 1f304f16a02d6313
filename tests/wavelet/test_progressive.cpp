#include "wavelet/progressive.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace avf::wavelet {
namespace {

struct Rig {
  Image img = Image::synthetic(128, 128, 17);
  Pyramid pyr{img, 3};
  ProgressiveEncoder enc{pyr, 8};
  ProgressiveDecoder dec{128, 128, 3, 8};
};

Region full_region(const Image& img) {
  return Region{img.width() / 2, img.height() / 2,
                std::max(img.width(), img.height())};
}

TEST(Progressive, FullRegionFullLevelIsLossless) {
  Rig rig;
  Bytes payload = rig.enc.encode_region(full_region(rig.img), 3);
  ASSERT_FALSE(payload.empty());
  rig.dec.apply(payload);
  EXPECT_EQ(rig.dec.reconstruct(3), rig.img);
  EXPECT_TRUE(rig.enc.fully_sent(3));
  EXPECT_DOUBLE_EQ(rig.dec.coverage(3), 1.0);
}

TEST(Progressive, NoRetransmission) {
  Rig rig;
  Region r{64, 64, 32};
  Bytes first = rig.enc.encode_region(r, 2);
  ASSERT_FALSE(first.empty());
  Bytes second = rig.enc.encode_region(r, 2);
  EXPECT_TRUE(second.empty());  // same region, nothing new
}

TEST(Progressive, GrowingFoveaSendsIncrements) {
  Rig rig;
  std::size_t cumulative = 0;
  for (int half = 16; half <= 128; half += 16) {
    Bytes payload = rig.enc.encode_region(Region{64, 64, half}, 3);
    if (!payload.empty()) {
      auto result = rig.dec.apply(payload);
      cumulative += result.coefficients;
    }
  }
  EXPECT_TRUE(rig.enc.fully_sent(3));
  EXPECT_EQ(rig.dec.reconstruct(3), rig.img);
  // Incremental total equals one full transmission (no duplicates).
  EXPECT_EQ(cumulative, rig.dec.coefficients_received());
}

TEST(Progressive, HigherLevelSendsMoreData) {
  Rig a, b;
  Region r{64, 64, 40};
  std::size_t low = a.enc.encode_region(r, 1).size();
  std::size_t high = b.enc.encode_region(r, 3).size();
  EXPECT_GT(high, low);
}

TEST(Progressive, RegionOutsideImageSendsNothing) {
  Rig rig;
  Bytes payload = rig.enc.encode_region(Region{1000, 1000, 8}, 3);
  EXPECT_TRUE(payload.empty());
}

TEST(Progressive, PartialCoverageReconstructsApproximately) {
  Rig rig;
  // Send only the LL + level-1 data for the center region.
  Bytes payload = rig.enc.encode_region(Region{64, 64, 32}, 1);
  rig.dec.apply(payload);
  EXPECT_GT(rig.dec.coverage(1), 0.0);
  EXPECT_LT(rig.dec.coverage(3), 1.0);
  // The reconstruction is not exact but the received center should be
  // closer to the truth than an empty buffer.
  Image recon = rig.dec.reconstruct(3);
  Image empty_recon = ProgressiveDecoder(128, 128, 3, 8).reconstruct(3);
  EXPECT_LT(recon.mean_abs_diff(rig.img), empty_recon.mean_abs_diff(rig.img));
}

TEST(Progressive, LevelUpgradeAfterFullCoarseSend) {
  Rig rig;
  Bytes coarse = rig.enc.encode_region(full_region(rig.img), 2);
  rig.dec.apply(coarse);
  EXPECT_TRUE(rig.enc.fully_sent(2));
  EXPECT_FALSE(rig.enc.fully_sent(3));
  // Level-2 image is exact now.
  Pyramid ref(rig.img, 3);
  EXPECT_EQ(rig.dec.reconstruct(2), ref.reconstruct(2));
  // Upgrading to level 3 sends only the level-3 detail bands.
  Bytes fine = rig.enc.encode_region(full_region(rig.img), 3);
  rig.dec.apply(fine);
  EXPECT_EQ(rig.dec.reconstruct(3), rig.img);
}

TEST(Progressive, ResetForgetsSentState) {
  Rig rig;
  Region r{64, 64, 32};
  Bytes first = rig.enc.encode_region(r, 2);
  rig.enc.reset();
  Bytes again = rig.enc.encode_region(r, 2);
  EXPECT_EQ(first.size(), again.size());
}

TEST(Progressive, TilesSentMatchesTotalWhenComplete) {
  Rig rig;
  rig.enc.encode_region(full_region(rig.img), 3);
  EXPECT_EQ(rig.enc.tiles_sent(), rig.enc.total_tiles(3));
}

TEST(Progressive, MalformedPayloadThrows) {
  Rig rig;
  Bytes payload = rig.enc.encode_region(Region{64, 64, 16}, 1);
  ASSERT_GT(payload.size(), 4u);
  Bytes truncated(payload.begin(), payload.begin() + payload.size() / 2);
  EXPECT_THROW(rig.dec.apply(truncated), std::runtime_error);

  Bytes bad_band = payload;
  bad_band[2] = 0xFF;  // first tile's band id
  ProgressiveDecoder fresh(128, 128, 3, 8);
  EXPECT_THROW(fresh.apply(bad_band), std::runtime_error);
}

TEST(Progressive, RejectsBadTileSize) {
  Pyramid pyr(64, 64, 2);
  EXPECT_THROW(ProgressiveEncoder(pyr, 0), std::invalid_argument);
  EXPECT_THROW(ProgressiveDecoder(64, 64, 2, 300), std::invalid_argument);
}

class ProgressiveTileSizes : public ::testing::TestWithParam<int> {};

TEST_P(ProgressiveTileSizes, LosslessAtAnyTileSize) {
  Image img = Image::synthetic(64, 64, 23);
  Pyramid pyr(img, 2);
  ProgressiveEncoder enc(pyr, GetParam());
  ProgressiveDecoder dec(64, 64, 2, GetParam());
  dec.apply(enc.encode_region(Region{32, 32, 64}, 2));
  EXPECT_EQ(dec.reconstruct(2), img);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, ProgressiveTileSizes,
                         ::testing::Values(1, 3, 8, 16, 17, 64, 255));

// -- take/serialize split (the cacheable decomposition) ------------------

TEST(Progressive, TakeThenSerializeMatchesEncodeRegion) {
  // encode_region must equal serialize_tiles(take_region_tiles(...)) byte
  // for byte across a growing fovea — the identity the region cache rests
  // on.
  Rig via_split, via_encode;
  for (int half = 16; half <= 128; half += 24) {
    Region r{64, 64, half};
    std::vector<TileRef> tiles = via_split.enc.take_region_tiles(r, 3);
    Bytes split_bytes = via_split.enc.serialize_tiles(tiles);
    Bytes direct = via_encode.enc.encode_region(r, 3);
    EXPECT_EQ(split_bytes, direct);
    EXPECT_EQ(tiles.empty(), direct.empty());
  }
  EXPECT_EQ(via_split.enc.tiles_sent(), via_encode.enc.tiles_sent());
}

TEST(Progressive, SerializeTilesIsPure) {
  Rig rig;
  std::vector<TileRef> tiles = rig.enc.take_region_tiles({64, 64, 32}, 2);
  ASSERT_FALSE(tiles.empty());
  std::size_t sent = rig.enc.tiles_sent();
  Bytes first = rig.enc.serialize_tiles(tiles);
  Bytes second = rig.enc.serialize_tiles(tiles);
  EXPECT_EQ(first, second);              // same bytes every time
  EXPECT_EQ(rig.enc.tiles_sent(), sent);  // no sent-state mutation
}

TEST(Progressive, TakeRegionTilesMarksSent) {
  Rig rig;
  Region r{64, 64, 32};
  std::vector<TileRef> first = rig.enc.take_region_tiles(r, 2);
  ASSERT_FALSE(first.empty());
  // Taking the same region again yields nothing: the tiles are spoken for
  // even though serialize_tiles never ran.
  EXPECT_TRUE(rig.enc.take_region_tiles(r, 2).empty());
  EXPECT_TRUE(rig.enc.encode_region(r, 2).empty());
}

// -- decoder fast path vs the per-coefficient reference ------------------

/// The per-coefficient decoder ProgressiveDecoder::apply replaced (two
/// bounds checks per coefficient), kept verbatim as the oracle for the
/// one-check-per-tile row loop.
class ReferenceDecoder {
 public:
  ReferenceDecoder(int width, int height, int levels, int tile)
      : pyramid_(width, height, levels), tile_(tile) {
    for (int b = 0; b < progdetail::band_count(levels); ++b) {
      const Band& band = progdetail::band_by_id(pyramid_, b);
      received_.emplace_back(static_cast<std::size_t>(across(band.width)) *
                                 across(band.height),
                             false);
    }
  }

  ProgressiveDecoder::ApplyResult apply(std::span<const std::uint8_t> payload) {
    ProgressiveDecoder::ApplyResult result;
    if (payload.empty()) return result;
    std::size_t at = 0;
    auto need = [&](std::size_t n) {
      if (at + n > payload.size()) {
        throw std::runtime_error("progressive: truncated payload");
      }
    };
    auto u8 = [&]() -> std::uint32_t {
      need(1);
      return payload[at++];
    };
    auto u16 = [&]() -> std::uint32_t {
      need(2);
      std::uint32_t v =
          payload[at] | (static_cast<std::uint32_t>(payload[at + 1]) << 8);
      at += 2;
      return v;
    };
    std::uint32_t count = u16();
    for (std::uint32_t t = 0; t < count; ++t) {
      std::uint32_t b = u8();
      if (static_cast<int>(b) >= progdetail::band_count(pyramid_.levels())) {
        throw std::runtime_error("progressive: bad band id");
      }
      std::uint32_t tx = u16();
      std::uint32_t ty = u16();
      std::uint32_t w = u8();
      std::uint32_t h = u8();
      Band& band = progdetail::band_by_id(pyramid_, static_cast<int>(b));
      int x0 = static_cast<int>(tx) * tile_;
      int y0 = static_cast<int>(ty) * tile_;
      if (x0 + static_cast<int>(w) > band.width ||
          y0 + static_cast<int>(h) > band.height) {
        throw std::runtime_error("progressive: tile out of bounds");
      }
      for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
          std::uint32_t lo = u8(), hi = u8();
          band.at(x0 + static_cast<int>(x), y0 + static_cast<int>(y)) =
              static_cast<std::int16_t>(
                  static_cast<std::uint16_t>(lo | (hi << 8)));
        }
      }
      received_[b][static_cast<std::size_t>(ty) * across(band.width) + tx] =
          true;
      ++result.tiles;
      result.coefficients += static_cast<std::size_t>(w) * h;
    }
    if (at != payload.size()) {
      throw std::runtime_error("progressive: trailing bytes");
    }
    return result;
  }

  double coverage(int level) const {
    std::size_t have = 0, total = 0;
    for (int b = 0; b < progdetail::band_count(pyramid_.levels()); ++b) {
      if (!progdetail::band_in_level(b, level)) continue;
      total += received_[b].size();
      for (bool r : received_[b]) have += r ? 1 : 0;
    }
    return total == 0 ? 0.0 : static_cast<double>(have) / total;
  }

  const Pyramid& pyramid() const { return pyramid_; }

 private:
  int across(int extent) const { return (extent + tile_ - 1) / tile_; }

  Pyramid pyramid_;
  int tile_;
  std::vector<std::vector<bool>> received_;
};

void expect_same_bands(const Pyramid& a, const Pyramid& b) {
  ASSERT_EQ(a.levels(), b.levels());
  for (int id = 0; id < progdetail::band_count(a.levels()); ++id) {
    EXPECT_EQ(progdetail::band_by_id(a, id).coeffs,
              progdetail::band_by_id(b, id).coeffs)
        << "band " << id;
  }
}

/// The message of the std::runtime_error `f` throws ("" when it does not).
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Progressive, DecoderMatchesPerCoefficientReference) {
  constexpr int kTiles[] = {1, 3, 5, 8, 16, 17, 255};
  util::SplitMix64 rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    const int levels = 1 + static_cast<int>(rng.next_below(3));
    // Sides are multiples of 2^levels but rarely of the tile, so bands end
    // in edge tiles narrower and shorter than the tile size.
    const int width =
        (1 << levels) * (1 + static_cast<int>(rng.next_below(12)));
    const int height =
        (1 << levels) * (1 + static_cast<int>(rng.next_below(12)));
    const int tile = kTiles[rng.next_below(std::size(kTiles))];
    Image img = Image::synthetic(width, height, rng.next());
    Pyramid pyr(img, levels);
    ProgressiveEncoder enc(pyr, tile);
    ProgressiveDecoder fast(width, height, levels, tile);
    ReferenceDecoder ref(width, height, levels, tile);
    SCOPED_TRACE(testing::Message() << "trial " << trial << ": " << width
                                    << "x" << height << " levels " << levels
                                    << " tile " << tile);

    for (int step = 0; step < 6; ++step) {
      Region fovea{static_cast<int>(rng.next_below(width)),
                   static_cast<int>(rng.next_below(height)),
                   static_cast<int>(rng.next_below(width + height))};
      int level = static_cast<int>(rng.next_below(levels + 1));
      Bytes payload = enc.encode_region(fovea, level);
      ProgressiveDecoder::ApplyResult a = fast.apply(payload);
      ProgressiveDecoder::ApplyResult b = ref.apply(payload);
      EXPECT_EQ(a.tiles, b.tiles);
      EXPECT_EQ(a.coefficients, b.coefficients);
      for (int l = 0; l <= levels; ++l) {
        EXPECT_EQ(fast.coverage(l), ref.coverage(l)) << "level " << l;
      }
    }
    expect_same_bands(fast.pyramid(), ref.pyramid());
    // Finish the image: both decoders end lossless.
    Bytes rest = enc.encode_region(full_region(img), levels);
    EXPECT_EQ(fast.apply(rest).coefficients, ref.apply(rest).coefficients);
    expect_same_bands(fast.pyramid(), ref.pyramid());
    EXPECT_EQ(fast.reconstruct(levels), img);
  }
}

TEST(Progressive, HostilePayloadsThrowTheReferenceErrors) {
  // 40x24 at 2 levels: 10x6 bands, 8-wide tiles, so every band has an
  // edge tile (w 2, h 6 / 6).
  Image img = Image::synthetic(40, 24, 5);
  Pyramid pyr(img, 2);
  ProgressiveEncoder enc(pyr, 8);
  const Bytes payload = enc.encode_region(Region{20, 12, 40}, 2);
  ASSERT_GT(payload.size(), 64u);

  auto same_error = [](const Bytes& bytes) {
    ProgressiveDecoder fast(40, 24, 2, 8);
    ReferenceDecoder ref(40, 24, 2, 8);
    std::string want = error_of([&] { ref.apply(bytes); });
    EXPECT_EQ(error_of([&] { fast.apply(bytes); }), want);
    return want;
  };

  // Cut at every length: mid-header, mid-tile header, mid-coefficients.
  for (std::size_t n = 1; n < payload.size(); ++n) {
    Bytes cut(payload.begin(), payload.begin() + static_cast<long>(n));
    EXPECT_EQ(same_error(cut), "progressive: truncated payload") << n;
  }
  // Header offsets of the first and second tiles (tile 0 is the LL tile
  // at (0, 0), 8x6 coefficients).
  const std::size_t first = 2;
  const std::size_t second = first + 7 + 2 * 8 * 6;
  for (std::size_t tile : {first, second}) {
    Bytes bad_band = payload;
    bad_band[tile] = 0xFF;
    EXPECT_EQ(same_error(bad_band), "progressive: bad band id");

    Bytes far_x = payload;
    far_x[tile + 1] = 0xFF;  // tx low byte
    EXPECT_EQ(same_error(far_x), "progressive: tile out of bounds");

    Bytes tall = payload;
    tall[tile + 6] = 0xFF;  // h
    EXPECT_EQ(same_error(tall), "progressive: tile out of bounds");
  }
  Bytes trailing = payload;
  trailing.push_back(0);
  EXPECT_EQ(same_error(trailing), "progressive: trailing bytes");
  EXPECT_EQ(same_error(payload), "");
}

TEST(Progressive, ZeroExtentTilePastTheGridIsOutOfBounds) {
  // A 0x0 tile at tile index (2, 0) of a 16x16 band with 8-wide tiles
  // passes the extent check (16 + 0 <= 16) but names a tile past the grid.
  ProgressiveDecoder dec(32, 32, 1, 8);
  Bytes payload = {1, 0, /*band*/ 0, /*tx*/ 2, 0, /*ty*/ 0, 0, /*w*/ 0,
                   /*h*/ 0};
  EXPECT_EQ(error_of([&] { dec.apply(payload); }),
            "progressive: tile out of bounds");
}

}  // namespace
}  // namespace avf::wavelet
