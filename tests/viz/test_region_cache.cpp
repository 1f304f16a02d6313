// Thin cache layers over the content-addressed TileStore: a hit must be
// byte-identical to the uncached path, counters must track
// hits/misses/evictions, byte budgets must hold, and the new content
// keying must agree with the old string-keyed scheme on every
// single-pyramid hit/miss — differing only where it should: identical
// content stored as distinct pyramids now dedups.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "viz/caches.hpp"
#include "viz/tile_store.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {
namespace {

using wavelet::Bytes;
using wavelet::Image;
using wavelet::ProgressiveEncoder;
using wavelet::Pyramid;
using wavelet::Region;
using wavelet::TileRef;

std::shared_ptr<const Pyramid> test_pyramid(std::uint64_t seed = 17) {
  Image img = Image::synthetic(128, 128, seed);
  return std::make_shared<const Pyramid>(img, 3);
}

/// RegionEncodeCache::encode under the key the server derives.
std::shared_ptr<const Bytes> encode(RegionEncodeCache& cache,
                                    const util::Hash128& content,
                                    const ProgressiveEncoder& enc,
                                    const std::vector<TileRef>& tiles,
                                    std::uint64_t origin_tag = 0) {
  return cache.encode(region_key(content, enc.tile_size(), tiles), enc, tiles,
                      origin_tag);
}

TEST(RegionEncodeCache, HitIsByteIdenticalAcrossSessions) {
  auto pyr = test_pyramid();
  util::Hash128 content = wavelet::pyramid_content_hash(*pyr);
  ProgressiveEncoder first(*pyr, 8);
  ProgressiveEncoder second(*pyr, 8);  // a different session, same pyramid
  RegionEncodeCache cache;

  Region region{64, 64, 32};
  std::vector<TileRef> tiles = first.take_region_tiles(region, 2);
  ASSERT_FALSE(tiles.empty());
  Bytes direct = first.serialize_tiles(tiles);

  auto miss = encode(cache, content, first, tiles);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(*miss, direct);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  // Session two needs the same tiles: served from cache, byte-identical.
  std::vector<TileRef> again = second.take_region_tiles(region, 2);
  ASSERT_EQ(again, tiles);
  auto hit = encode(cache, content, second, again);
  EXPECT_EQ(*hit, direct);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RegionEncodeCache, DistinctTileListsAreDistinctEntries) {
  auto pyr = test_pyramid();
  util::Hash128 content = wavelet::pyramid_content_hash(*pyr);
  ProgressiveEncoder enc(*pyr, 8);
  RegionEncodeCache cache;

  std::vector<TileRef> coarse = enc.take_region_tiles({64, 64, 16}, 1);
  std::vector<TileRef> fine = enc.take_region_tiles({64, 64, 48}, 3);
  ASSERT_FALSE(coarse.empty());
  ASSERT_FALSE(fine.empty());
  ASSERT_NE(coarse, fine);

  auto a = encode(cache, content, enc, coarse);
  auto b = encode(cache, content, enc, fine);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(a->size(), enc.serialize_tiles(coarse).size());
}

TEST(RegionEncodeCache, ByteBudgetEvictionRespectsBound) {
  auto pyr = test_pyramid();
  util::Hash128 content = wavelet::pyramid_content_hash(*pyr);
  ProgressiveEncoder enc(*pyr, 8);

  std::vector<TileRef> lists[3] = {
      enc.take_region_tiles({32, 32, 16}, 1),
      enc.take_region_tiles({96, 96, 16}, 2),
      enc.take_region_tiles({64, 64, 60}, 3),
  };
  std::size_t sizes[3];
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(lists[i].empty());
    sizes[i] = enc.serialize_tiles(lists[i]).size();
  }
  // Budget fits any two payloads but not all three: the third insert
  // evicts exactly the oldest entry (all ref bits set => FIFO sweep).
  TileStore::Options opts;
  opts.byte_budget = sizes[0] + sizes[1] + sizes[2] - 1;
  TileStore store(opts);
  RegionEncodeCache cache(store);

  for (const auto& tiles : lists) {
    (void)encode(cache, content, enc, tiles);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(store.bytes_resident(), opts.byte_budget);

  // The oldest entry was evicted: re-encoding it is a fresh miss, and the
  // payload still matches the pure serialization.
  std::uint64_t misses_before = cache.misses();
  auto re = encode(cache, content, enc, lists[0]);
  EXPECT_EQ(*re, enc.serialize_tiles(lists[0]));
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(RegionEncodeCache, EntryPinsPayloadPastEviction) {
  auto pyr = test_pyramid();
  util::Hash128 content = wavelet::pyramid_content_hash(*pyr);
  ProgressiveEncoder enc(*pyr, 8);

  std::vector<TileRef> first = enc.take_region_tiles({32, 32, 16}, 1);
  std::vector<TileRef> second = enc.take_region_tiles({96, 96, 16}, 2);
  TileStore::Options opts;
  opts.byte_budget = enc.serialize_tiles(first).size();
  TileStore store(opts);
  RegionEncodeCache cache(store);

  auto held = encode(cache, content, enc, first);
  Bytes snapshot = *held;
  (void)encode(cache, content, enc, second);  // evicts `first`'s entry
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(*held, snapshot);  // shared ownership keeps the payload alive
}

// The hot-path keying change (incremental 128-bit hash instead of a
// per-request std::string key) must not change *which* lookups hit: replay
// a request sequence against both the new cache and an oracle map keyed by
// the old-style string, and require identical hit/miss verdicts.
TEST(RegionEncodeCache, NewKeyingAgreesWithStringKeyOracle) {
  auto pyr = test_pyramid();
  util::Hash128 content = wavelet::pyramid_content_hash(*pyr);
  ProgressiveEncoder probe(*pyr, 8);
  RegionEncodeCache cache;

  // A walk with deliberate revisits (fresh encoders re-issue tile lists an
  // earlier session already produced).
  std::vector<std::vector<TileRef>> sequence;
  ProgressiveEncoder s1(*pyr, 8);
  sequence.push_back(s1.take_region_tiles({64, 64, 16}, 1));
  sequence.push_back(s1.take_region_tiles({64, 64, 32}, 2));
  ProgressiveEncoder s2(*pyr, 8);
  sequence.push_back(s2.take_region_tiles({64, 64, 16}, 1));  // repeat
  sequence.push_back(s2.take_region_tiles({32, 96, 24}, 2));
  ProgressiveEncoder s3(*pyr, 8);
  sequence.push_back(s3.take_region_tiles({64, 64, 16}, 1));  // repeat
  sequence.push_back(s3.take_region_tiles({64, 64, 32}, 2));  // repeat

  std::map<std::string, bool> oracle;  // old-style string key -> present
  for (const auto& tiles : sequence) {
    if (tiles.empty()) continue;
    // The legacy key: tile size plus the exact TileRef list, serialized to
    // a string (per-pyramid; this whole sequence uses one pyramid).
    std::ostringstream key;
    key << 8;
    for (const TileRef& t : tiles) {
      key << '|' << static_cast<int>(t.band) << ':' << t.tx << ':' << t.ty;
    }
    bool oracle_hit = oracle[key.str()];
    oracle[key.str()] = true;

    std::uint64_t hits_before = cache.hits();
    (void)encode(cache, content, probe, tiles);
    bool new_hit = cache.hits() == hits_before + 1;
    EXPECT_EQ(new_hit, oracle_hit) << "keying divergence on " << key.str();
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

// The one intentional difference from the old pointer-keyed scheme:
// identical content reached through a *different* pyramid object now hits.
TEST(RegionEncodeCache, CrossImageDedupByteEquality) {
  auto pyr_a = test_pyramid(99);
  auto pyr_b = test_pyramid(99);  // distinct object, identical content
  ASSERT_NE(pyr_a.get(), pyr_b.get());
  util::Hash128 content_a = wavelet::pyramid_content_hash(*pyr_a);
  util::Hash128 content_b = wavelet::pyramid_content_hash(*pyr_b);
  EXPECT_EQ(content_a, content_b);

  ProgressiveEncoder enc_a(*pyr_a, 8);
  ProgressiveEncoder enc_b(*pyr_b, 8);
  TileStore store;
  RegionEncodeCache cache(store);

  std::vector<TileRef> tiles_a = enc_a.take_region_tiles({64, 64, 32}, 2);
  std::vector<TileRef> tiles_b = enc_b.take_region_tiles({64, 64, 32}, 2);
  ASSERT_EQ(tiles_a, tiles_b);

  auto first = encode(cache, content_a, enc_a, tiles_a, /*origin_tag=*/1);
  auto second = encode(cache, content_b, enc_b, tiles_b, /*origin_tag=*/2);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(store.unique_entries(), 1u);
  EXPECT_EQ(store.cross_origin_hits(), 1u);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(*second, enc_b.serialize_tiles(tiles_b));

  // Different content must NOT dedup.
  auto pyr_c = test_pyramid(100);
  util::Hash128 content_c = wavelet::pyramid_content_hash(*pyr_c);
  EXPECT_NE(content_c, content_a);
  ProgressiveEncoder enc_c(*pyr_c, 8);
  std::vector<TileRef> tiles_c = enc_c.take_region_tiles({64, 64, 32}, 2);
  ASSERT_EQ(tiles_c, tiles_a);  // same geometry, different coefficients
  auto third = encode(cache, content_c, enc_c, tiles_c, /*origin_tag=*/3);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(*third, *first);
}

TEST(CompressedChunkCache, HitMatchesRealCodecOutput) {
  Bytes raw;
  for (int i = 0; i < 4096; ++i) {
    raw.push_back(static_cast<std::uint8_t>((i * 31) & 0x7F));
  }
  CompressedChunkCache cache;

  auto miss = cache.compress(codec::CodecId::kLzw, raw);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(*miss, codec::codec_for(codec::CodecId::kLzw).compress(raw));
  EXPECT_EQ(cache.misses(), 1u);

  auto hit = cache.compress(codec::CodecId::kLzw, raw);
  EXPECT_EQ(*hit, *miss);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Same bytes, different codec: a distinct entry with distinct output.
  auto bwt = cache.compress(codec::CodecId::kBwt, raw);
  EXPECT_EQ(*bwt, codec::codec_for(codec::CodecId::kBwt).compress(raw));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CompressedChunkCache, ByteBudgetEvictionRespectsBound) {
  Bytes chunks[3];
  std::size_t sizes[3];
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 256; ++i) {
      chunks[c].push_back(static_cast<std::uint8_t>((i + c * 7) & 0xFF));
    }
    sizes[c] =
        codec::codec_for(codec::CodecId::kLzw).compress(chunks[c]).size();
  }
  TileStore::Options opts;
  opts.byte_budget = sizes[0] + sizes[1] + sizes[2] - 1;
  TileStore store(opts);
  CompressedChunkCache cache(store);

  for (const auto& chunk : chunks) {
    (void)cache.compress(codec::CodecId::kLzw, chunk);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(store.bytes_resident(), opts.byte_budget);
  // Evicted chunk recompresses to the same bytes (pure codec).
  auto re = cache.compress(codec::CodecId::kLzw, chunks[0]);
  EXPECT_EQ(*re, codec::codec_for(codec::CodecId::kLzw).compress(chunks[0]));
  EXPECT_EQ(cache.misses(), 4u);
}

// Region and chunk layers sharing one store must never alias entries even
// for coinciding byte streams: the domain seeds keep key spaces disjoint.
TEST(SharedStore, LayersShareBudgetNotKeys) {
  TileStore store;
  RegionEncodeCache regions(store);
  CompressedChunkCache chunks(store);

  auto pyr = test_pyramid();
  util::Hash128 content = wavelet::pyramid_content_hash(*pyr);
  ProgressiveEncoder enc(*pyr, 8);
  std::vector<TileRef> tiles = enc.take_region_tiles({64, 64, 32}, 2);
  auto region_payload = encode(regions, content, enc, tiles);

  // Compress the region payload itself: same input bytes flowing through
  // the other layer must create a *second* entry, not hit the first.
  auto compressed = chunks.compress(codec::CodecId::kLzw, *region_payload);
  EXPECT_EQ(store.unique_entries(), 2u);
  EXPECT_EQ(chunks.hits(), 0u);
  EXPECT_EQ(store.bytes_resident(),
            region_payload->size() + compressed->size());
}

}  // namespace
}  // namespace avf::viz
