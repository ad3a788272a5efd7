/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "sim/cache.hh"

namespace stms
{
namespace
{

CacheConfig
smallCache(std::uint32_t ways = 2)
{
    // 4KB, 64B blocks -> 64 lines.
    return CacheConfig{"test", 4 * 1024, ways};
}

TEST(Cache, MissThenFillThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SubBlockAddressesShareALine)
{
    Cache cache(smallCache());
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1004, false));
    EXPECT_TRUE(cache.access(0x103F, true));
    EXPECT_TRUE(cache.contains(0x1010));
}

TEST(Cache, EvictionReportsVictim)
{
    Cache cache(smallCache(/*ways=*/2));
    // Same set: stride = sets * blockSize = 32 * 64.
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    cache.fill(stride);
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.blockAddr, 0u);  // LRU victim.
    EXPECT_FALSE(evicted.dirty);
}

TEST(Cache, DirtyEvictionFlagged)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0, /*dirty=*/true);
    cache.fill(stride);
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_TRUE(evicted.valid);
    EXPECT_TRUE(evicted.dirty);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    EXPECT_TRUE(cache.access(0x0, true));  // Write hit.
    cache.fill(stride);
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_TRUE(evicted.dirty);
}

TEST(Cache, LruPreservedByHits)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    cache.fill(stride);
    EXPECT_TRUE(cache.access(0x0, false));  // Refresh 0x0.
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_EQ(evicted.blockAddr, stride);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache(smallCache());
    cache.fill(0x2000);
    EXPECT_TRUE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.contains(0x2000));
    EXPECT_FALSE(cache.invalidate(0x2000));
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, RefillOfPresentBlockKeepsOccupancy)
{
    Cache cache(smallCache());
    cache.fill(0x40);
    cache.fill(0x40, true);
    EXPECT_EQ(cache.occupancy(), 1u);
    // The refill's dirtiness sticks.
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x40 + stride);
    Eviction evicted = cache.fill(0x40 + 2 * stride);
    EXPECT_TRUE(evicted.dirty);
}

TEST(Cache, MarkDirtyOnPresentLine)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    cache.markDirty(0x0);
    cache.fill(stride);
    EXPECT_TRUE(cache.fill(2 * stride).dirty);
}

TEST(Cache, OccupancyTracksFills)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.occupancy(), 0u);
    for (Addr block = 0; block < 10; ++block)
        cache.fill(blockAddress(block * 3));
    EXPECT_EQ(cache.occupancy(), 10u);
}

TEST(Cache, GeometryAccessors)
{
    Cache cache(smallCache(2));
    EXPECT_EQ(cache.sizeBytes(), 4096u);
    EXPECT_EQ(cache.numWays(), 2u);
    EXPECT_EQ(cache.numSets() * cache.numWays() * kBlockBytes,
              cache.sizeBytes());
}

TEST(Cache, FullSetNeverExceedsWays)
{
    Cache cache(smallCache(4));
    // Hammer one set with many distinct blocks.
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr i = 0; i < 64; ++i)
        cache.fill(i * stride);
    EXPECT_LE(cache.occupancy(), 4u);
}

TEST(Cache, WorkingSetWithinCapacityAllHits)
{
    Cache cache(smallCache(4));
    for (Addr block = 0; block < 32; ++block)
        cache.fill(blockAddress(block));
    cache.resetStats();
    for (int round = 0; round < 4; ++round)
        for (Addr block = 0; block < 32; ++block)
            EXPECT_TRUE(cache.access(blockAddress(block), false));
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(Lru, VictimIsLeastRecentlyTouched)
{
    Cache cache(smallCache(4));
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr way = 0; way < 4; ++way)
        cache.fill(way * stride);
    EXPECT_TRUE(cache.access(0x0, false));  // Block 1 is now LRU.
    EXPECT_EQ(cache.fill(4 * stride).blockAddr, stride);
    EXPECT_EQ(cache.fill(5 * stride).blockAddr, 2 * stride);
}

TEST(Lru, RecencyRankOrdersWays)
{
    Cache cache(smallCache(4));
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr way = 0; way < 4; ++way)
        cache.fill(way * stride);
    // Touch order 2, 0, 3, 1: block 2 is now LRU and block 1 MRU.
    for (Addr way : {2, 0, 3, 1})
        EXPECT_TRUE(cache.access(way * stride, false));
    // Each fill displaces the oldest block left from the touch order.
    for (Addr way : {2, 0, 3, 1}) {
        const Eviction evicted = cache.fill((8 + way) * stride);
        EXPECT_TRUE(evicted.valid);
        EXPECT_EQ(evicted.blockAddr, way * stride);
    }
}

TEST(Cache, SingleWayAlwaysEvictsResident)
{
    Cache cache(smallCache(1));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    for (Addr i = 1; i < 4; ++i) {
        EXPECT_TRUE(cache.access((i - 1) * stride, false));
        const Eviction evicted = cache.fill(i * stride);
        EXPECT_TRUE(evicted.valid);
        EXPECT_EQ(evicted.blockAddr, (i - 1) * stride);
    }
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(Cache, InvalidatedWayRefilledBeforeEviction)
{
    Cache cache(smallCache(4));
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr way = 0; way < 4; ++way)
        cache.fill(way * stride);
    // Free the MRU way; block 0 stays the set's LRU.
    EXPECT_TRUE(cache.invalidate(3 * stride));
    EXPECT_FALSE(cache.fill(4 * stride).valid);
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (Addr way : {0, 1, 2, 4})
        EXPECT_TRUE(cache.contains(way * stride));
    // Only once the set is full again does the LRU block go.
    EXPECT_EQ(cache.fill(5 * stride).blockAddr, 0u);
}

} // namespace
} // namespace stms
