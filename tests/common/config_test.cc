/** @file Unit tests for the key=value option store and size parsing. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/config.hh"
#include "driver/experiment.hh"

namespace stms
{
namespace
{

TEST(Options, ParseTokenSplitsOnEquals)
{
    Options options;
    EXPECT_TRUE(options.parseToken("alpha=1"));
    EXPECT_TRUE(options.parseToken("name=hello=world"));
    EXPECT_EQ(options.get("alpha", ""), "1");
    EXPECT_EQ(options.get("name", ""), "hello=world");
}

TEST(Options, ParseTokenRejectsBadSyntax)
{
    Options options;
    EXPECT_FALSE(options.parseToken("novalue"));
    EXPECT_FALSE(options.parseToken("=leading"));
}

TEST(Options, TypedAccessorsWithFallbacks)
{
    Options options;
    options.set("d", "0.125");
    options.set("b", "true");
    options.set("u", "64M");
    EXPECT_DOUBLE_EQ(options.getDouble("d", 0), 0.125);
    EXPECT_DOUBLE_EQ(options.getDouble("missing", 0.5), 0.5);
    EXPECT_TRUE(options.getBool("b", false));
    EXPECT_FALSE(options.getBool("missing", false));
    EXPECT_EQ(options.getUint("u", 0), 64ULL << 20);
}

TEST(Options, JunkDoublesAreFatal)
{
    // "sampling=abc" used to run silently as sampling=0.
    Options options;
    for (const char *text : {"abc", "0.5x", ""}) {
        options.set("d", text);
        EXPECT_EXIT(options.getDouble("d", 1.0),
                    ::testing::ExitedWithCode(1), "bad number")
            << "'" << text << "'";
    }
    options.set("d", "0.125");
    EXPECT_DOUBLE_EQ(options.getDouble("d", 1.0), 0.125);
}

TEST(Options, BoolSpellings)
{
    Options options;
    for (const char *spelling : {"1", "true", "yes", "on"}) {
        options.set("k", spelling);
        EXPECT_TRUE(options.getBool("k", false)) << spelling;
    }
    for (const char *spelling : {"0", "false", "no", "off"}) {
        options.set("k", spelling);
        EXPECT_FALSE(options.getBool("k", true)) << spelling;
    }
}

TEST(Options, KeysSorted)
{
    Options options;
    options.set("zeta", "1");
    options.set("alpha", "2");
    const auto keys = options.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "alpha");
    EXPECT_EQ(keys[1], "zeta");
}

TEST(ParseSize, Suffixes)
{
    EXPECT_EQ(parseSize("0"), 0u);
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("8K"), 8ULL << 10);
    EXPECT_EQ(parseSize("8k"), 8ULL << 10);
    EXPECT_EQ(parseSize("64M"), 64ULL << 20);
    EXPECT_EQ(parseSize("2G"), 2ULL << 30);
    EXPECT_EQ(parseSize("1.5K"), 1536u);
    EXPECT_EQ(parseSize(""), 0u);
    EXPECT_EQ(parseSize("16777215T"), 16777215ULL << 40);  // < 2^64.
}

TEST(ParseSize, OutOfRangeValuesAreFatal)
{
    // Casting any of these from double to uint64_t is undefined, so
    // "records=-5" must exit 1 with a message rather than run with a
    // garbage count.
    for (const char *text :
         {"-5", "-1K", "-0.5", "nan", "inf", "-inf", "1e30",
          "18446744073709551616", "16777216T"}) {
        EXPECT_EXIT(parseSize(text), ::testing::ExitedWithCode(1),
                    "out of range")
            << text;
    }
    EXPECT_EXIT(parseSize("12Q"), ::testing::ExitedWithCode(1),
                "bad size suffix");
}

TEST(ParseSize, BenchRecordsOverrideIsParsedLikeRecords)
{
    // STMS_BENCH_RECORDS=-5 used to reach vector::reserve as 2^64-5
    // and abort; it now fails the way records=-5 does. Each death
    // test sets the variable in its own forked child.
    const Options none;
    EXPECT_EXIT(
        {
            setenv("STMS_BENCH_RECORDS", "-5", 1);
            driver::plannedRecords(none, 7);
        },
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        {
            setenv("STMS_BENCH_RECORDS", "lots", 1);
            driver::plannedRecords(none, 7);
        },
        ::testing::ExitedWithCode(1), "bad size suffix");

    setenv("STMS_BENCH_RECORDS", "8K", 1);
    EXPECT_EQ(driver::plannedRecords(none, 7), 8192u);
    setenv("STMS_BENCH_RECORDS", "0", 1);
    EXPECT_EQ(driver::plannedRecords(none, 7), 7u);  // 0 = unset.
    Options records;
    records.set("records", "512");
    EXPECT_EQ(driver::plannedRecords(records, 7), 512u);
    unsetenv("STMS_BENCH_RECORDS");
    EXPECT_EQ(driver::plannedRecords(none, 7), 7u);
}

TEST(ParseDecimal, DigitsOnly)
{
    std::uint64_t value = 0;
    EXPECT_TRUE(parseDecimal("0", value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(parseDecimal("010", value));  // Not octal.
    EXPECT_EQ(value, 10u);
    EXPECT_TRUE(parseDecimal("18446744073709551615", value));
    EXPECT_EQ(value, ~0ULL);

    value = 7;
    for (const char *text :
         {"", "0x4", "+3", "-1", " 3", "3 ", "1e3", "8K", "abc",
          "18446744073709551616", "99999999999999999999"}) {
        EXPECT_FALSE(parseDecimal(text, value)) << text;
        EXPECT_EQ(value, 7u) << text;
    }
}

TEST(FormatSize, HumanReadable)
{
    EXPECT_EQ(formatSize(0), "0.0B");
    EXPECT_EQ(formatSize(1024), "1.0KB");
    EXPECT_EQ(formatSize(64ULL << 20), "64.0MB");
    EXPECT_EQ(formatSize(1536), "1.5KB");
}

} // namespace
} // namespace stms
