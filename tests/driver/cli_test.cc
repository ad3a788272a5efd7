/** @file Tests of the driver command-line parser, including the
 *  GNU-style --flag=value spellings and key=value passthrough. */

#include <gtest/gtest.h>

#include <array>

#include "driver/cli.hh"

namespace stms::driver
{
namespace
{

DriverArgs
parse(std::vector<const char *> tokens, bool expect_ok = true)
{
    tokens.insert(tokens.begin(), "driver");
    DriverArgs args;
    std::string error;
    const bool ok = parseDriverArgs(
        static_cast<int>(tokens.size()),
        const_cast<char **>(tokens.data()), args, error);
    EXPECT_EQ(ok, expect_ok) << error;
    return args;
}

TEST(DriverCli, SpaceSeparatedFlags)
{
    const DriverArgs args = parse(
        {"--experiment", "fig7", "--threads", "8", "--json", "o.json"});
    ASSERT_EQ(args.experiments.size(), 1u);
    EXPECT_EQ(args.experiments[0], "fig7");
    EXPECT_EQ(args.threads, 8u);
    EXPECT_EQ(args.jsonPath, "o.json");
}

TEST(DriverCli, EqualsSpelledFlagsAreHonored)
{
    // Regression: these used to fall through into the experiment
    // options, silently running serial with no JSON output.
    const DriverArgs args =
        parse({"--experiment=fig9", "--threads=4", "--json=out.json"});
    ASSERT_EQ(args.experiments.size(), 1u);
    EXPECT_EQ(args.experiments[0], "fig9");
    EXPECT_EQ(args.threads, 4u);
    EXPECT_EQ(args.jsonPath, "out.json");
    EXPECT_FALSE(args.options.has("threads"));
    EXPECT_FALSE(args.options.has("json"));
    EXPECT_FALSE(args.options.has("experiment"));
}

TEST(DriverCli, KeyValuePassthroughReachesOptions)
{
    const DriverArgs args =
        parse({"--experiment", "fig7", "records=65536", "--sampling=0.5"});
    EXPECT_EQ(args.options.getUint("records", 0), 65536u);
    EXPECT_EQ(args.options.getDouble("sampling", 0.0), 0.5);
}

TEST(DriverCli, RepeatedExperimentsAccumulate)
{
    const DriverArgs args =
        parse({"-e", "fig7", "--experiment=table2"});
    ASSERT_EQ(args.experiments.size(), 2u);
    EXPECT_EQ(args.experiments[0], "fig7");
    EXPECT_EQ(args.experiments[1], "table2");
}

TEST(DriverCli, TraceFlagsJoinIntoOneOption)
{
    // Repeated --trace flags (either spelling) accumulate into the
    // ';'-joined "trace" option trace_io::parseIngestSpec consumes —
    // one lane file per flag for ChampSim ingestion.
    const DriverArgs args = parse(
        {"--experiment", "ingest_replay", "--trace", "a.stms",
         "--trace=b.core1.champsim,format=champsim"});
    EXPECT_EQ(args.options.get("trace", ""),
              "a.stms;b.core1.champsim,format=champsim");
}

TEST(DriverCli, TraceNeedsAValue)
{
    parse({"--trace"}, /*expect_ok=*/false);
}

TEST(DriverCli, EqualsOnBooleanFlagsRejected)
{
    // "--csv=1" must not silently become the experiment option csv=1.
    parse({"--csv=1"}, /*expect_ok=*/false);
    parse({"--list=yes"}, /*expect_ok=*/false);
    parse({"--verbose=true"}, /*expect_ok=*/false);
}

TEST(DriverCli, ThreadsZeroMeansAutoDetect)
{
    // 0 is the auto spelling (hardware_concurrency at run time).
    EXPECT_EQ(parse({"--threads", "0"}).threads, 0u);
    EXPECT_EQ(parse({"--threads=0"}).threads, 0u);
}

TEST(DriverCli, BadThreadsRejected)
{
    parse({"--threads"}, /*expect_ok=*/false);
    parse({"--threads", "abc"}, /*expect_ok=*/false);
    parse({"--threads", "8x"}, /*expect_ok=*/false);
    parse({"--threads", "-2"}, /*expect_ok=*/false);
    parse({"--threads", "5000"}, /*expect_ok=*/false);
}

TEST(DriverCli, PipelineAndCacheFlags)
{
    const DriverArgs args = parse(
        {"--pipeline", "--trace-cache-mb", "256", "--no-timing"});
    EXPECT_TRUE(args.pipeline);
    EXPECT_EQ(args.traceCacheMb, 256u);
    EXPECT_FALSE(args.timing);

    const DriverArgs defaults = parse({});
    EXPECT_FALSE(defaults.pipeline);
    EXPECT_EQ(defaults.traceCacheMb, DriverArgs::kCacheUnset);
    EXPECT_TRUE(defaults.timing);

    EXPECT_EQ(parse({"--trace-cache-mb=0"}).traceCacheMb, 0u);
    parse({"--trace-cache-mb", "junk"}, /*expect_ok=*/false);
    // Boolean flags take no value (the =value spelling must not
    // fall through to the option store).
    parse({"--pipeline=1"}, /*expect_ok=*/false);
    parse({"--no-timing=1"}, /*expect_ok=*/false);
}

TEST(DriverCli, PipelineChunkFlagParses)
{
    // Both spellings reach the runner knob; the value never leaks
    // into the experiment options (chunk size is a residency knob,
    // not a model parameter).
    const DriverArgs space =
        parse({"--pipeline", "--pipeline-chunk", "4096"});
    EXPECT_EQ(space.pipelineChunk, 4096u);
    EXPECT_FALSE(space.options.has("pipeline-chunk"));
    const DriverArgs equals = parse({"--pipeline-chunk=7"});
    EXPECT_EQ(equals.pipelineChunk, 7u);
    EXPECT_FALSE(equals.options.has("pipeline-chunk"));

    // Default: 0 = engine default (kDefaultPipelineChunkRecords).
    EXPECT_EQ(parse({}).pipelineChunk, 0u);

    // Strictly positive, strictly numeric, sanity-bounded.
    parse({"--pipeline-chunk", "0"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk=0"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk", "junk"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk", "64k"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk", "1073741825"}, /*expect_ok=*/false);
}

TEST(DriverCli, UnknownTokensRejected)
{
    parse({"bogus"}, /*expect_ok=*/false);
    parse({"--unknown-flag"}, /*expect_ok=*/false);
}

TEST(DriverCli, ModeFlags)
{
    EXPECT_TRUE(parse({"--list"}).list);
    EXPECT_TRUE(parse({"--help"}).help);
    EXPECT_TRUE(parse({"--csv", "--verbose"}).csv);
    EXPECT_TRUE(parse({"--csv", "--verbose"}).verbose);
}

TEST(DriverCli, RemovedOptionsAreRejected)
{
    // Every spelling of a removed option fails with that option's
    // own message, and none falls through to the key=value store
    // (where "--store=DIR" would otherwise run as if honored).
    const std::string store_msg =
        "--store was removed: there is no result store; write the "
        "report with --json PATH";
    const std::string rerun_msg =
        "--rerun was removed: every invocation simulates every run; "
        "drop the option";
    const std::string shard_msg =
        "--shard was removed: a sweep always runs its whole plan; use "
        "--threads N to spread it over cores";
    const std::string results_msg =
        "--results was removed: there is no result store to list, "
        "show, diff or gc; compare --json reports "
        "(tools/golden_reports.py)";
    const std::string baseline_msg =
        "--baseline was removed: tools/golden_reports.py compares "
        "reports against the committed goldens in tests/data/golden";
    const std::string shards_msg =
        "--index-shards was removed: index-table sharding never "
        "changed results; drop the option";
    struct Case
    {
        std::vector<const char *> tokens;
        const std::string &message;
    };
    const Case cases[] = {
        {{"--store", "DIR"}, store_msg},
        {{"--store=DIR"}, store_msg},
        {{"--rerun"}, rerun_msg},
        {{"--shard", "1/2"}, shard_msg},
        {{"--shard=1/2"}, shard_msg},
        {{"--results", "list"}, results_msg},
        {{"--baseline=x"}, baseline_msg},
        {{"--index-shards", "4"}, shards_msg},
        {{"--index-shards=4"}, shards_msg},
        {{"index-shards=4"}, shards_msg},
    };
    for (const Case &c : cases) {
        std::vector<const char *> argv = {"driver", "-e", "fig7"};
        argv.insert(argv.end(), c.tokens.begin(), c.tokens.end());
        DriverArgs args;
        std::string error;
        EXPECT_FALSE(parseDriverArgs(static_cast<int>(argv.size()),
                                     const_cast<char **>(argv.data()),
                                     args, error))
            << c.tokens[0];
        EXPECT_EQ(error, c.message) << c.tokens[0];
        EXPECT_TRUE(args.options.keys().empty()) << c.tokens[0];
    }
}

TEST(DriverCli, RemovedOptionNamesDoNotShadowOtherOptions)
{
    // Matching is by whole option name: a longer name that merely
    // starts with a removed one is an ordinary key=value option.
    const DriverArgs args = parse({"storey=1", "--results-dir=x"});
    EXPECT_EQ(args.options.get("storey", ""), "1");
    EXPECT_EQ(args.options.get("results-dir", ""), "x");
}

} // namespace
} // namespace stms::driver
