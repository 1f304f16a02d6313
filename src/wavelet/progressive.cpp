#include "wavelet/progressive.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::wavelet {

namespace progdetail {

int band_count(int levels) { return 1 + 3 * levels; }

const Band& band_by_id(const Pyramid& pyramid, int band_id) {
  if (band_id == 0) return pyramid.ll();
  int k = (band_id - 1) / 3 + 1;
  auto o = static_cast<Orientation>((band_id - 1) % 3);
  return pyramid.detail(k, o);
}

Band& band_by_id(Pyramid& pyramid, int band_id) {
  return const_cast<Band&>(
      band_by_id(static_cast<const Pyramid&>(pyramid), band_id));
}

int band_scale(const Pyramid& pyramid, int band_id) {
  if (band_id == 0) return 1 << pyramid.levels();
  int k = (band_id - 1) / 3 + 1;
  return 1 << (pyramid.levels() - k + 1);
}

bool band_in_level(int band_id, int level) {
  if (band_id == 0) return true;
  int k = (band_id - 1) / 3 + 1;
  return k <= level;
}

namespace {

int tiles_across(int extent, int tile) { return (extent + tile - 1) / tile; }

struct TileRange {
  int tx0, ty0, tx1, ty1;  // half-open tile-index rectangle
};

/// Tiles of `band` (scale `scale`) touched by `region`; empty range when
/// the region misses the band entirely.
TileRange tiles_for_region(const Band& band, int scale, const Region& region,
                           int tile) {
  int x0 = std::max(0, region.cx - region.half);
  int y0 = std::max(0, region.cy - region.half);
  int x1 = region.cx + region.half;
  int y1 = region.cy + region.half;
  // Map to band coordinates (round outward).
  int bx0 = x0 / scale;
  int by0 = y0 / scale;
  int bx1 = std::min((x1 + scale - 1) / scale, band.width);
  int by1 = std::min((y1 + scale - 1) / scale, band.height);
  if (bx0 >= bx1 || by0 >= by1) return {0, 0, 0, 0};
  return {bx0 / tile, by0 / tile, tiles_across(bx1, tile),
          tiles_across(by1, tile)};
}

void append_u16(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

}  // namespace
}  // namespace progdetail

using namespace progdetail;

util::Hash128 pyramid_content_hash(const Pyramid& pyramid) {
  // Domain-seeded so pyramid fingerprints can never alias tile-store keys
  // derived from other byte streams.
  util::Hasher128 h(/*seed=*/0x70797261ULL);  // "pyra"
  h.update_u32(static_cast<std::uint32_t>(pyramid.full_width()));
  h.update_u32(static_cast<std::uint32_t>(pyramid.full_height()));
  h.update_u32(static_cast<std::uint32_t>(pyramid.levels()));
  int bands = band_count(pyramid.levels());
  for (int b = 0; b < bands; ++b) {
    const Band& band = band_by_id(pyramid, b);
    h.update_u32(static_cast<std::uint32_t>(band.width));
    h.update_u32(static_cast<std::uint32_t>(band.height));
    // Coefficients fold LSB-first via the typed update, keeping the digest
    // identical on any host endianness.
    for (std::int16_t c : band.coeffs) {
      h.update_u16(static_cast<std::uint16_t>(c));
    }
  }
  return h.finish();
}

ProgressiveEncoder::ProgressiveEncoder(const Pyramid& pyramid, int tile_size)
    : pyramid_(pyramid), tile_(tile_size) {
  if (tile_size < 1 || tile_size > 255) {
    throw std::invalid_argument("tile size must be in [1, 255]");
  }
  reset();
}

void ProgressiveEncoder::reset() {
  int bands = band_count(pyramid_.levels());
  sent_.assign(static_cast<std::size_t>(bands), {});
  for (int b = 0; b < bands; ++b) {
    const Band& band = band_by_id(pyramid_, b);
    sent_[b].assign(static_cast<std::size_t>(tiles_across(band.width, tile_)) *
                        tiles_across(band.height, tile_),
                    false);
  }
  tiles_sent_ = 0;
}

std::vector<TileRef> ProgressiveEncoder::take_region_tiles(
    const Region& region, int level) {
  if (level < 0 || level > pyramid_.levels()) {
    throw std::out_of_range(util::format("level {} out of range", level));
  }
  std::vector<TileRef> out;
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (!band_in_level(b, level)) continue;
    const Band& band = band_by_id(pyramid_, b);
    int scale = band_scale(pyramid_, b);
    TileRange tr = tiles_for_region(band, scale, region, tile_);
    int tiles_x = tiles_across(band.width, tile_);
    for (int ty = tr.ty0; ty < tr.ty1; ++ty) {
      for (int tx = tr.tx0; tx < tr.tx1; ++tx) {
        std::size_t idx = static_cast<std::size_t>(ty) * tiles_x + tx;
        if (sent_[b][idx]) continue;
        sent_[b][idx] = true;
        ++tiles_sent_;
        out.push_back(TileRef{static_cast<std::uint8_t>(b),
                              static_cast<std::uint16_t>(tx),
                              static_cast<std::uint16_t>(ty)});
      }
    }
  }
  return out;
}

Bytes ProgressiveEncoder::serialize_tiles(
    std::span<const TileRef> tiles) const {
  if (tiles.empty()) return {};
  if (tiles.size() > 0xFFFF) {
    throw std::runtime_error("too many tiles in one reply");
  }
  Bytes out;
  append_u16(out, static_cast<std::uint32_t>(tiles.size()));
  for (const TileRef& t : tiles) {
    const Band& band = band_by_id(pyramid_, t.band);
    int x0 = t.tx * tile_, y0 = t.ty * tile_;
    int w = std::min(tile_, band.width - x0);
    int h = std::min(tile_, band.height - y0);
    out.push_back(t.band);
    append_u16(out, t.tx);
    append_u16(out, t.ty);
    out.push_back(static_cast<std::uint8_t>(w));
    out.push_back(static_cast<std::uint8_t>(h));
    for (int y = y0; y < y0 + h; ++y) {
      for (int x = x0; x < x0 + w; ++x) {
        std::uint16_t v = static_cast<std::uint16_t>(band.at(x, y));
        out.push_back(static_cast<std::uint8_t>(v));
        out.push_back(static_cast<std::uint8_t>(v >> 8));
      }
    }
  }
  return out;
}

Bytes ProgressiveEncoder::encode_region(const Region& region, int level) {
  return serialize_tiles(take_region_tiles(region, level));
}

std::size_t ProgressiveEncoder::total_tiles(int level) const {
  std::size_t n = 0;
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (band_in_level(b, level)) n += sent_[b].size();
  }
  return n;
}

bool ProgressiveEncoder::fully_sent(int level) const {
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (!band_in_level(b, level)) continue;
    for (bool s : sent_[b]) {
      if (!s) return false;
    }
  }
  return true;
}

ProgressiveDecoder::ProgressiveDecoder(int width, int height, int levels,
                                       int tile_size)
    : pyramid_(width, height, levels), tile_(tile_size) {
  if (tile_size < 1 || tile_size > 255) {
    throw std::invalid_argument("tile size must be in [1, 255]");
  }
  int bands = band_count(levels);
  received_.assign(static_cast<std::size_t>(bands), {});
  for (int b = 0; b < bands; ++b) {
    const Band& band = band_by_id(pyramid_, b);
    received_[b].assign(
        static_cast<std::size_t>(tiles_across(band.width, tile_)) *
            tiles_across(band.height, tile_),
        false);
  }
}

ProgressiveDecoder::ApplyResult ProgressiveDecoder::apply(
    std::span<const std::uint8_t> payload) {
  ApplyResult result;
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
    std::uint32_t v = payload[at] | (static_cast<std::uint32_t>(
                                        payload[at + 1])
                                     << 8);
    at += 2;
    return v;
  };
  std::uint32_t count = u16();
  for (std::uint32_t t = 0; t < count; ++t) {
    std::uint32_t b = u8();
    if (static_cast<int>(b) >= band_count(pyramid_.levels())) {
      throw std::runtime_error("progressive: bad band id");
    }
    std::uint32_t tx = u16();
    std::uint32_t ty = u16();
    std::uint32_t w = u8();
    std::uint32_t h = u8();
    Band& band = band_by_id(pyramid_, static_cast<int>(b));
    int x0 = static_cast<int>(tx) * tile_;
    int y0 = static_cast<int>(ty) * tile_;
    int tiles_x = tiles_across(band.width, tile_);
    // The tile-grid check matters only for zero-extent tiles (w or h = 0)
    // sitting on the band edge, which would otherwise mark a tile past the
    // grid as received.
    if (x0 + static_cast<int>(w) > band.width ||
        y0 + static_cast<int>(h) > band.height ||
        static_cast<int>(tx) >= tiles_x ||
        static_cast<int>(ty) >= tiles_across(band.height, tile_)) {
      throw std::runtime_error("progressive: tile out of bounds");
    }
    // One bounds check per tile, then a straight row copy.  A truncated
    // tile throws before writing any of its coefficients.
    std::size_t n = static_cast<std::size_t>(w) * h;
    need(2 * n);
    const std::uint8_t* src = payload.data() + at;
    for (std::uint32_t y = 0; y < h; ++y) {
      std::int16_t* row = band.coeffs.data() +
                          static_cast<std::size_t>(y0 + static_cast<int>(y)) *
                              band.width +
                          x0;
      for (std::uint32_t x = 0; x < w; ++x, src += 2) {
        row[x] = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(src[0] | (src[1] << 8)));
      }
    }
    at += 2 * n;
    received_[b][static_cast<std::size_t>(ty) * tiles_x + tx] = true;
    ++result.tiles;
    result.coefficients += static_cast<std::size_t>(w) * h;
  }
  coefficients_ += result.coefficients;
  if (at != payload.size()) {
    throw std::runtime_error("progressive: trailing bytes");
  }
  return result;
}

double ProgressiveDecoder::coverage(int level) const {
  std::size_t have = 0, total = 0;
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (!band_in_level(b, level)) continue;
    total += received_[b].size();
    for (bool r : received_[b]) have += r ? 1 : 0;
  }
  return total == 0 ? 0.0 : static_cast<double>(have) / total;
}

}  // namespace avf::wavelet
