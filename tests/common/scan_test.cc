/** @file Tests of the first-match scan (common/scan.hh). */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/scan.hh"

namespace stms
{
namespace
{

TEST(FindFirstEqual, EmptyArrayNeverMatches)
{
    // count == 0 must not read the element behind the pointer.
    const std::uint64_t behind = 42;
    EXPECT_EQ(findFirstEqual(&behind, 0, 42), kNpos);
}

TEST(FindFirstEqual, AllBucketOccupancies)
{
    // The index-table bucket scan runs at every occupancy 0..12 (the
    // paper's 12-entry buckets). Probe each position plus a miss, with
    // a copy of the probe key just past count that must stay unseen.
    for (std::size_t count = 0; count <= 12; ++count) {
        std::vector<std::uint64_t> keys(count + 1);
        for (std::size_t i = 0; i < count; ++i)
            keys[i] = 1000 + i;
        for (std::size_t hit = 0; hit < count; ++hit) {
            EXPECT_EQ(findFirstEqual(keys.data(), count, 1000 + hit),
                      hit)
                << "count=" << count;
        }
        keys[count] = 999;
        EXPECT_EQ(findFirstEqual(keys.data(), count, 999), kNpos)
            << "count=" << count;
    }
}

TEST(FindFirstEqual, FirstMatchWinsOnDuplicates)
{
    for (std::size_t count = 2; count <= 16; ++count) {
        std::vector<std::uint64_t> keys(count, 7);  // all duplicates
        EXPECT_EQ(findFirstEqual(keys.data(), count, 7), 0u);
        keys[0] = 1;
        EXPECT_EQ(findFirstEqual(keys.data(), count, 7), 1u);
    }
}

TEST(FindFirstEqual, ExtremeKeyValues)
{
    // Keys agreeing with a probe in one 32-bit half but not the other
    // must not match.
    const std::vector<std::uint64_t> keys = {
        0, 1, ~0ULL, ~0ULL - 1, 0x8000000000000000ULL,
        0x7fffffffffffffffULL, 0x00000000ffffffffULL,
        0xffffffff00000000ULL, 0x1234567800000000ULL,
        0x0000000012345678ULL};
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(findFirstEqual(keys.data(), keys.size(), keys[i]), i);
    EXPECT_EQ(findFirstEqual(keys.data(), keys.size(),
                             0x1234567812345678ULL),
              kNpos);
    EXPECT_EQ(findFirstEqual(keys.data(), keys.size(), 0xdeadbeefULL),
              kNpos);
}

} // namespace
} // namespace stms
