/** @file Unit tests for the epoch sampler: probe registry, row
 *  capture and the warmup discard boundary. */

#include <gtest/gtest.h>

#include "telemetry/sampler.hh"

namespace stms::telemetry
{
namespace
{

TEST(EpochSampler, DisabledByDefault)
{
    EpochSampler sampler;
    EXPECT_FALSE(sampler.enabled());
    EXPECT_EQ(sampler.every(), 0u);
    EXPECT_TRUE(sampler.series().empty());
}

TEST(EpochSampler, RegistrationOrderDefinesColumns)
{
    EpochSampler sampler;
    sampler.configure(1024);
    ASSERT_TRUE(sampler.enabled());

    double coverage = 0.25;
    std::uint64_t reads = 100;
    sampler.addCounter("coverage", [&] { return coverage; });
    sampler.addCounter("offchip_reads",
                       [&] { return static_cast<double>(reads); });

    sampler.sample(1024, 5000);
    coverage = 0.5;
    reads = 250;
    sampler.sample(2048, 11000);

    const SampleSeries &series = sampler.series();
    EXPECT_EQ(series.every, 1024u);
    ASSERT_EQ(series.columns.size(), 2u);
    EXPECT_EQ(series.columns[0], "coverage");
    EXPECT_EQ(series.columns[1], "offchip_reads");
    ASSERT_EQ(series.rows.size(), 2u);
    EXPECT_EQ(series.rows[0].accesses, 1024u);
    EXPECT_EQ(series.rows[0].cycle, 5000u);
    EXPECT_DOUBLE_EQ(series.rows[0].values[0], 0.25);
    EXPECT_DOUBLE_EQ(series.rows[0].values[1], 100.0);
    EXPECT_DOUBLE_EQ(series.rows[1].values[0], 0.5);
    EXPECT_DOUBLE_EQ(series.rows[1].values[1], 250.0);
}

TEST(EpochSampler, DiscardRowsMarksWarmupBoundary)
{
    EpochSampler sampler;
    sampler.configure(64);
    sampler.addCounter("x", [] { return 1.0; });
    sampler.sample(64, 100);
    sampler.sample(128, 200);
    ASSERT_EQ(sampler.series().rows.size(), 2u);

    // Warmup ends: rows go, the registry stays.
    sampler.discardRows();
    EXPECT_TRUE(sampler.series().empty());
    EXPECT_EQ(sampler.series().columns.size(), 1u);

    sampler.sample(192, 300);
    ASSERT_EQ(sampler.series().rows.size(), 1u);
    EXPECT_EQ(sampler.series().rows[0].accesses, 192u);
}

TEST(EpochSampler, TakeMovesSeriesOutAndResets)
{
    EpochSampler sampler;
    sampler.configure(32);
    sampler.addCounter("x", [] { return 2.0; });
    sampler.sample(32, 10);

    SampleSeries out = sampler.take();
    EXPECT_EQ(out.every, 32u);
    ASSERT_EQ(out.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(out.rows[0].values[0], 2.0);

    // The sampler is ready for the next run: same epoch, same
    // columns, no rows.
    EXPECT_TRUE(sampler.series().empty());
    EXPECT_EQ(sampler.series().every, 32u);
    ASSERT_EQ(sampler.series().columns.size(), 1u);
    EXPECT_EQ(sampler.series().columns[0], "x");

    sampler.sample(64, 20);
    EXPECT_EQ(sampler.series().rows.size(), 1u);
}

} // namespace
} // namespace stms::telemetry
