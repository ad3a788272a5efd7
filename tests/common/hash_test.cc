/** @file Property tests for the address-hash mixer, and FNV-1a
 *  against its published vectors. */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"

namespace stms
{
namespace
{

TEST(Hash, MixIsDeterministic)
{
    EXPECT_EQ(mixHash64(12345), mixHash64(12345));
    EXPECT_NE(mixHash64(12345), mixHash64(12346));
}

TEST(Hash, NoCollisionsOnDenseRange)
{
    // The finalizer is bijective; a dense range must stay distinct.
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 100000; ++i)
        EXPECT_TRUE(seen.insert(mixHash64(i)).second);
}

TEST(Hash, BucketSpreadUniformForSequentialBlocks)
{
    // Sequential block numbers (the worst realistic input) must
    // spread evenly over buckets — this is what keeps index-table
    // bucket occupancy balanced (Sec. 4.3).
    constexpr std::uint64_t buckets = 64;
    std::vector<int> counts(buckets, 0);
    constexpr int n = 64000;
    for (int i = 0; i < n; ++i)
        ++counts[hashToBucket(static_cast<Addr>(i), buckets)];
    for (int count : counts) {
        EXPECT_GT(count, n / buckets * 0.85);
        EXPECT_LT(count, n / buckets * 1.15);
    }
}

TEST(Hash, AvalancheFlipsManyBits)
{
    Rng rng(31);
    double total_flips = 0;
    constexpr int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        const std::uint64_t x = rng.next();
        const std::uint64_t y = x ^ (1ULL << rng.below(64));
        total_flips += __builtin_popcountll(mixHash64(x) ^
                                            mixHash64(y));
    }
    // Single-bit input changes should flip ~32 output bits.
    EXPECT_NEAR(total_flips / trials, 32.0, 3.0);
}

TEST(Fnv1a, MatchesReferenceVectors)
{
    // Published FNV-1a test vectors. The model digests (ModelDigest.*,
    // sweepbench's FIG7_DIGEST) are FNV-1a values, so the hash may
    // never change.
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

} // namespace
} // namespace stms
