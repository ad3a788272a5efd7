/** @file Unit tests for log2 histograms. */

#include <gtest/gtest.h>

#include "stats/histogram.hh"

namespace stms
{
namespace
{

TEST(Log2Histogram, BucketBoundaries)
{
    Log2Histogram hist(16);
    hist.sample(0);
    hist.sample(1);
    hist.sample(2);
    hist.sample(3);
    hist.sample(4);
    hist.sample(1023);
    hist.sample(1024);
    EXPECT_EQ(hist.bucketCount(0), 2u);  // {0, 1}
    EXPECT_EQ(hist.bucketCount(1), 2u);  // [2, 4)
    EXPECT_EQ(hist.bucketCount(2), 1u);  // [4, 8)
    EXPECT_EQ(hist.bucketCount(9), 1u);  // [512, 1024)
    EXPECT_EQ(hist.bucketCount(10), 1u); // [1024, 2048)
}

TEST(Log2Histogram, CumulativeFractionMonotone)
{
    Log2Histogram hist(16);
    for (std::uint64_t v = 1; v < 2000; v += 7)
        hist.sample(v);
    double prev = 0.0;
    for (std::size_t b = 0; b < hist.numBuckets(); ++b) {
        const double cum = hist.cumulativeFraction(b);
        EXPECT_GE(cum, prev);
        prev = cum;
    }
    EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(Log2Histogram, WeightedMean)
{
    Log2Histogram hist(8);
    hist.sample(10, 5);
    hist.sample(20, 5);
    EXPECT_DOUBLE_EQ(hist.mean(), 15.0);
    EXPECT_EQ(hist.count(), 10u);
}

TEST(Log2Histogram, ToStringListsOccupiedBuckets)
{
    Log2Histogram hist(8);
    hist.sample(5);
    const std::string text = hist.toString("lengths");
    EXPECT_NE(text.find("lengths"), std::string::npos);
    EXPECT_NE(text.find("4"), std::string::npos);
}

} // namespace
} // namespace stms
