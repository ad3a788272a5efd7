/**
 * @file
 * Unit tests for --mem-backend spec parsing and canonicalization.
 * canonical() is the "mem-backend" option the driver passes to the
 * experiments, so the invariants here (defaults canonicalize away,
 * spellings collapse, errors are rejected early) keep
 * `--mem-backend fixed` output identical to no flag.
 */

#include <gtest/gtest.h>

#include "sim/mem_backend.hh"

namespace stms
{
namespace
{

MemBackendSpec
parseOk(const std::string &text)
{
    MemBackendSpec spec;
    std::string error;
    const bool ok = parseMemBackendSpec(text, spec, error);
    EXPECT_TRUE(ok) << text << ": " << error;
    return spec;
}

std::string
parseFail(const std::string &text)
{
    MemBackendSpec spec;
    std::string error;
    EXPECT_FALSE(parseMemBackendSpec(text, spec, error)) << text;
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(MemBackendSpec, DefaultSpecIsCanonicalFixed)
{
    MemBackendSpec spec;
    EXPECT_TRUE(spec.isDefault());
    EXPECT_EQ(spec.canonical(), "fixed");
    EXPECT_EQ(parseOk("fixed").canonical(), "fixed");
}

TEST(MemBackendSpec, KindsParse)
{
    EXPECT_EQ(parseOk("fixed").kind, MemBackendKind::Fixed);
    EXPECT_EQ(parseOk("queued").kind, MemBackendKind::Queued);
    EXPECT_EQ(parseOk("dram").kind, MemBackendKind::Dram);
    EXPECT_FALSE(parseOk("queued").isDefault());
    EXPECT_FALSE(parseOk("dram").isDefault());
}

TEST(MemBackendSpec, ExplicitDefaultsCanonicalizeAway)
{
    // Spelling out a default value must canonicalize identically to
    // omitting it.
    EXPECT_EQ(parseOk("queued,channels=2").canonical(), "queued");
    EXPECT_EQ(parseOk("dram,ranks=1,banks=8,row-bytes=8192").canonical(),
              "dram");
    EXPECT_EQ(parseOk("dram,trcd=60,tcas=60,trp=60,tras=160,policy=open")
                  .canonical(),
              "dram");
    EXPECT_EQ(parseOk("fixed,latency=180,transfer=9").canonical(),
              "fixed");
    EXPECT_TRUE(parseOk("fixed,latency=180").isDefault());
}

TEST(MemBackendSpec, NonDefaultsSurviveInFixedKeyOrder)
{
    EXPECT_EQ(parseOk("queued,channels=4").canonical(),
              "queued,channels=4");
    EXPECT_EQ(parseOk("dram,policy=closed,banks=16").canonical(),
              "dram,banks=16,policy=closed");
    // Key order in the input must not matter.
    EXPECT_EQ(parseOk("dram,banks=16,policy=closed").canonical(),
              parseOk("dram,policy=closed,banks=16").canonical());
    EXPECT_EQ(parseOk("fixed,latency=90").canonical(),
              "fixed,latency=90");
    EXPECT_EQ(parseOk("dram,channels=2,tras=200").canonical(),
              "dram,channels=2,tras=200");
}

TEST(MemBackendSpec, ParsedFieldsReachTheBackendConfig)
{
    const MemBackendSpec spec =
        parseOk("dram,channels=2,banks=16,row-bytes=4096,trcd=45,"
                "policy=closed");
    EXPECT_EQ(spec.kind, MemBackendKind::Dram);
    EXPECT_EQ(spec.channels, 2u);
    EXPECT_EQ(spec.banksPerRank, 16u);
    EXPECT_EQ(spec.rowBytes, 4096u);
    EXPECT_EQ(spec.tRcd, 45u);
    EXPECT_EQ(spec.policy, PagePolicy::Closed);

    EventQueue events;
    auto mem = makeMemBackend(events, spec, MemCtrlConfig{});
    EXPECT_STREQ(mem->kindName(), "dram");
    EXPECT_EQ(mem->channels(), 2u);
}

TEST(MemBackendSpec, RejectsBadInput)
{
    parseFail("");
    parseFail("sram");
    parseFail("fixed,channels=2");      // Fixed has one channel.
    parseFail("fixed,trcd=60");         // DRAM-only key.
    parseFail("queued,policy=open");    // DRAM-only key.
    parseFail("dram,latency=100");      // Use trcd/tcas/trp instead.
    parseFail("queued,channels=0");     // Zero is not a count.
    parseFail("queued,channels=two");   // Junk value.
    parseFail("dram,row-bytes=100");    // Not a multiple of 64.
    parseFail("dram,policy=sideways");
    parseFail("dram,frobnicate=1");     // Unknown key.
    parseFail("queued,channels");       // Missing '='.
    parseFail("queued,=2");             // Missing key.
    // strtoull reads "-1" as 2^64 - 1 and the count fields are 32
    // bits wide: unchecked, these schedule events in the past, abort
    // in bad_alloc, or run a different backend than asked for.
    parseFail("fixed,transfer=-1");
    parseFail("fixed,latency=-1");
    parseFail("fixed,latency=+5");
    parseFail("fixed,latency= 5");
    parseFail("fixed,latency=18446744073709551616");  // ERANGE.
    parseFail("queued,channels=-1");
    parseFail("queued,channels=99999999999");
    parseFail("queued,channels=4294967296");  // 0 in 32 bits.
}

TEST(MemBackendSpec, LimitsAreInclusive)
{
    EXPECT_EQ(parseOk("queued,channels=64").channels, 64u);
    parseFail("queued,channels=65");
    EXPECT_EQ(parseOk("fixed,latency=1048576").accessLatency,
              kMaxMemCycles);
    parseFail("fixed,latency=1048577");
    parseFail("dram,trcd=1048577");
    EXPECT_EQ(parseOk("dram,row-bytes=1048576").rowBytes,
              kMaxRowBytes);
    parseFail("dram,row-bytes=1048640");
    EXPECT_EQ(parseOk("dram,channels=8,ranks=4,banks=128").channels,
              8u);  // 4096 banks in all.
    const std::string error =
        parseFail("dram,channels=8,ranks=4,banks=256");
    EXPECT_NE(error.find("channels x ranks x banks"), std::string::npos)
        << error;
    parseFail("dram,banks=4097");
}

TEST(MemBackendSpec, FailedParseLeavesSpecUntouched)
{
    MemBackendSpec spec;
    spec.kind = MemBackendKind::Queued;
    spec.channels = 8;
    std::string error;
    ASSERT_FALSE(parseMemBackendSpec("dram,banks=zero", spec, error));
    EXPECT_EQ(spec.kind, MemBackendKind::Queued);
    EXPECT_EQ(spec.channels, 8u);
}

} // namespace
} // namespace stms
