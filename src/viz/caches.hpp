// Thin lookup layers over the process-wide content-addressed TileStore
// (viz/tile_store.hpp) for the multi-session Active Visualization server.
//
// With many clients foveating many catalog images, the expensive
// server-side work (serializing wavelet tiles, running the real codec) is
// identical whenever the *content* is identical; only per-session
// sent-state differs.  Both layers key on a seeded 128-bit content key
// derived incrementally (no per-request key buffer — the previous
// implementation built a std::string per lookup) and delegate storage, byte
// budgeting, CLOCK eviction, and pinning to their TileStore:
//
//  - RegionEncodeCache keys on region_key(pyramid *content* hash, tile
//    size, the precise TileRef list).  The tile list is what (region,
//    level, already-sent state class) resolve to, and serialize_tiles is a
//    pure function of (pyramid content, tile size, tiles) — so a hit is
//    byte-identical to the uncached path by construction, across sessions
//    AND across distinct images containing the same data.  The server
//    derives the key once per request and also keys its compressed-size
//    cache on it, so a size-cache hit never touches payload bytes.
//  - CompressedChunkCache keys on (codec id, the raw chunk bytes, hashed
//    in place), so a hit returns the byte-identical compressed output the
//    codec would have produced.  The server consults it only where the
//    codec would otherwise really run (size-cache misses, fidelity
//    mode), so its byte hash rides along with a real compression.
//
// Each layer keeps its own hit/miss/collision counters (lock-free; the
// store's byte/dedup counters aggregate across layers sharing it).  The
// default-constructed layer owns a private store — tests and benches that
// construct fresh caches get fresh, attributable state — while global()
// layers share TileStore::global() across every world a parallel sweep
// builds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "codec/codec.hpp"
#include "util/hash.hpp"
#include "viz/tile_store.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {

/// Seeded 128-bit name of the payload serialize_tiles(`tiles`) produces
/// for a pyramid with content hash `pyramid_content` (or any stand-in
/// hash) at `tile_size`.  Hashes the tile list only, never payload bytes.
util::Hash128 region_key(const util::Hash128& pyramid_content, int tile_size,
                         std::span<const wavelet::TileRef> tiles);

/// region_key(pyramid content, tile_size, tile list) -> serialized region
/// payload.
class RegionEncodeCache {
 public:
  /// Owns a private TileStore (fresh, attributable state).
  RegionEncodeCache();
  /// Layers over `store` (shared with other layers; not owned).
  explicit RegionEncodeCache(TileStore& store) : store_(&store) {}

  /// Serialize `tiles` against `encoder`'s pyramid, reusing a previous
  /// byte-identical serialization of the same content when available.
  /// `key` must be region_key(h, encoder.tile_size(), tiles) with h the
  /// wavelet::pyramid_content_hash of the pyramid `encoder` was built over
  /// (the server memoizes it per stored image); `origin_tag` labels the
  /// requester (the server passes the image id) so the store can count
  /// cross-image hits.
  std::shared_ptr<const wavelet::Bytes> encode(
      const util::Hash128& key, const wavelet::ProgressiveEncoder& encoder,
      std::span<const wavelet::TileRef> tiles, std::uint64_t origin_tag = 0);

  TileStore& store() { return *store_; }
  const TileStore& store() const { return *store_; }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const { return store_->evictions(); }
  std::size_t size() const { return store_->unique_entries(); }

  /// Shared instance used by default; layered over TileStore::global().
  static RegionEncodeCache& global();

 private:
  std::unique_ptr<TileStore> owned_store_;
  TileStore* store_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> collisions_{0};
};

/// (codec id, raw bytes) -> compressed bytes.
class CompressedChunkCache {
 public:
  /// Owns a private TileStore (fresh, attributable state).
  CompressedChunkCache();
  /// Layers over `store` (shared with other layers; not owned).
  explicit CompressedChunkCache(TileStore& store) : store_(&store) {}

  /// Compress `raw` with `id`, reusing a previous byte-identical
  /// compression of the same chunk when available.
  std::shared_ptr<const codec::Bytes> compress(codec::CodecId id,
                                               codec::BytesView raw,
                                               std::uint64_t origin_tag = 0);

  TileStore& store() { return *store_; }
  const TileStore& store() const { return *store_; }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const { return store_->evictions(); }
  std::size_t size() const { return store_->unique_entries(); }

  /// Shared instance used by default; layered over TileStore::global().
  static CompressedChunkCache& global();

 private:
  std::unique_ptr<TileStore> owned_store_;
  TileStore* store_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> collisions_{0};
};

}  // namespace avf::viz
