// Regression tests for CompressedSizeCache keying and bounding.
//
// The cache keys on the (128-bit region key, codec) pair.  The seed
// implementation mixed the codec id into a single integer key as
// fingerprint * 0x100000001b3 + id, which collides whenever two payload
// fingerprints differ by a multiple of the prime's modular inverse — the
// cache then silently returns the wrong codec's size.  It also grew the
// process-wide singleton without bound.
#include "viz/server.hpp"

#include <gtest/gtest.h>

namespace avf::viz {
namespace {

using codec::CodecId;
using util::Hash128;

/// A region key whose high word selects shard `shard` of a 16-way cache
/// (shards are chosen by the top four bits) and whose low word is `n`.
Hash128 key_in_shard(std::uint64_t shard, std::uint64_t n) {
  return Hash128{shard << 60, n};
}

TEST(SizeCache, DistinguishesCodecsForSamePayload) {
  CompressedSizeCache cache;
  const Hash128 region{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  cache.store(CodecId::kNone, region, 100);
  cache.store(CodecId::kLzw, region, 42);
  cache.store(CodecId::kBwt, region, 7);
  EXPECT_EQ(cache.lookup(CodecId::kNone, region), 100u);
  EXPECT_EQ(cache.lookup(CodecId::kLzw, region), 42u);
  EXPECT_EQ(cache.lookup(CodecId::kBwt, region), 7u);
}

TEST(SizeCache, CrossCodecFingerprintCollisionResolved) {
  // The seed keying, old_key(f, id) = f * P + id with P = 0x100000001b3
  // (odd, so invertible mod 2^64 with inverse Pinv = 0xce965057aff6957b),
  // made f and f + Pinv collide across codec ids 1 and 0:
  //   (f + Pinv) * P + 0 == f * P + 1  (mod 2^64).
  // Keyed on the (region key, codec) pair, both entries must coexist.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::uint64_t kPrimeInverse = 0xce965057aff6957bULL;
  static_assert(kPrime * kPrimeInverse == 1ULL, "inverse mod 2^64");
  const Hash128 r1{7, 0xdeadbeefcafef00dULL};
  const Hash128 r2{7, r1.lo + kPrimeInverse};
  ASSERT_EQ(r1.lo * kPrime + static_cast<std::uint64_t>(CodecId::kLzw),
            r2.lo * kPrime + static_cast<std::uint64_t>(CodecId::kNone));

  // The current bucket hash is lo ^ G * (codec + 1): r3 lands in r1's
  // bucket under the other codec.  Equal bucket hashes must not merge
  // distinct keys either.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const Hash128 r3{7, r1.lo ^ (kGolden * 2) ^ (kGolden * 1)};

  CompressedSizeCache cache;
  cache.store(CodecId::kLzw, r1, 1111);
  cache.store(CodecId::kNone, r2, 2222);
  cache.store(CodecId::kNone, r3, 3333);
  EXPECT_EQ(cache.lookup(CodecId::kLzw, r1), 1111u);
  EXPECT_EQ(cache.lookup(CodecId::kNone, r2), 2222u);
  EXPECT_EQ(cache.lookup(CodecId::kNone, r3), 3333u);
  EXPECT_FALSE(cache.lookup(CodecId::kNone, r1).has_value());
  EXPECT_FALSE(cache.lookup(CodecId::kLzw, r3).has_value());
  EXPECT_EQ(cache.size(), 3u);

  // Keys equal in one word only are distinct keys.
  cache.store(CodecId::kLzw, Hash128{8, r1.lo}, 4444);
  EXPECT_EQ(cache.lookup(CodecId::kLzw, r1), 1111u);
  EXPECT_EQ(cache.lookup(CodecId::kLzw, Hash128{8, r1.lo}), 4444u);
}

TEST(SizeCache, BoundedWithFifoEviction) {
  CompressedSizeCache cache(4);
  for (std::uint64_t f = 0; f < 10; ++f) {
    cache.store(CodecId::kLzw, Hash128{f, f}, static_cast<std::size_t>(f));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.evictions(), 6u);
  // Oldest entries evicted, newest retained.
  EXPECT_FALSE(cache.lookup(CodecId::kLzw, Hash128{0, 0}).has_value());
  EXPECT_EQ(cache.lookup(CodecId::kLzw, Hash128{9, 9}), 9u);
}

TEST(SizeCache, OverwriteDoesNotDuplicateQueueEntries) {
  CompressedSizeCache cache(2);
  for (int round = 0; round < 50; ++round) {
    cache.store(CodecId::kLzw, Hash128{0, 1}, 10);
    cache.store(CodecId::kLzw, Hash128{0, 2}, 20);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.lookup(CodecId::kLzw, Hash128{0, 1}), 10u);
  EXPECT_EQ(cache.lookup(CodecId::kLzw, Hash128{0, 2}), 20u);
}

TEST(SizeCache, CountsHitsAndMisses) {
  CompressedSizeCache cache;
  const Hash128 region{9, 9};
  EXPECT_FALSE(cache.lookup(CodecId::kLzw, region).has_value());
  cache.store(CodecId::kLzw, region, 3);
  EXPECT_TRUE(cache.lookup(CodecId::kLzw, region).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SizeCache, ProductionSizeIsSharded) {
  CompressedSizeCache cache;  // default 1<<16 entries
  EXPECT_EQ(cache.shard_count(), 16u);
  // Counters and size() aggregate across shards.
  for (std::uint64_t n = 0; n < 64; ++n) {
    cache.store(CodecId::kLzw, key_in_shard(n % 16, n), 100 + n);
  }
  EXPECT_EQ(cache.size(), 64u);
  for (std::uint64_t n = 0; n < 64; ++n) {
    auto got = cache.lookup(CodecId::kLzw, key_in_shard(n % 16, n));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 100 + n);
  }
  EXPECT_EQ(cache.hits(), 64u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(SizeCache, SmallCacheCollapsesToOneShard) {
  // Tight bounds keep the exact single-FIFO semantics the eviction tests
  // above pin down.
  CompressedSizeCache cache(8);
  EXPECT_EQ(cache.shard_count(), 1u);
}

TEST(SizeCache, ShardThresholdBoundaryAt256Entries) {
  // The split happens at exactly kMaxShards^2 = 256 entries: 255 stays a
  // single exact FIFO, 256 shards 16 ways with a per-shard bound of 16.
  CompressedSizeCache below(255);
  EXPECT_EQ(below.shard_count(), 1u);
  CompressedSizeCache at(256);
  EXPECT_EQ(at.shard_count(), 16u);

  // Below the boundary: global FIFO, exact capacity 255.  Entry 0 is the
  // first victim no matter which shard its key would map to.
  for (std::uint64_t n = 0; n < 255; ++n) {
    below.store(CodecId::kLzw, key_in_shard(n % 16, n),
                static_cast<std::size_t>(n));
  }
  EXPECT_EQ(below.size(), 255u);
  EXPECT_EQ(below.evictions(), 0u);
  below.store(CodecId::kLzw, key_in_shard(255 % 16, 255), 255);
  EXPECT_EQ(below.size(), 255u);
  EXPECT_EQ(below.evictions(), 1u);
  EXPECT_FALSE(below.lookup(CodecId::kLzw, key_in_shard(0, 0)).has_value());

  // At the boundary: the bound is per shard (256 / 16 = 16).  Seventeen
  // keys that all select shard 0 evict within that shard even though the
  // cache as a whole is nearly empty.
  for (std::uint64_t n = 1; n <= 16; ++n) {
    at.store(CodecId::kLzw, key_in_shard(0, n), static_cast<std::size_t>(n));
  }
  EXPECT_EQ(at.size(), 16u);
  EXPECT_EQ(at.evictions(), 0u);
  at.store(CodecId::kLzw, key_in_shard(0, 17), 17);
  EXPECT_EQ(at.size(), 16u);
  EXPECT_EQ(at.evictions(), 1u);
  EXPECT_FALSE(at.lookup(CodecId::kLzw, key_in_shard(0, 1)).has_value());
  EXPECT_EQ(at.lookup(CodecId::kLzw, key_in_shard(0, 17)), 17u);
}

TEST(SizeCache, ShardedAggregateBoundHolds) {
  CompressedSizeCache cache(256);  // 16 shards x 16 entries
  EXPECT_EQ(cache.shard_count(), 16u);
  for (std::uint64_t n = 0; n < 1024; ++n) {
    // Every shard sees traffic.
    cache.store(CodecId::kLzw, key_in_shard(n % 16, n), n);
  }
  EXPECT_LE(cache.size(), 256u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.size() + cache.evictions(), 1024u);
}

}  // namespace
}  // namespace avf::viz
