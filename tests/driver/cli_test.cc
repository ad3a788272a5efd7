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
    // into the experiment options (it must not join fingerprints —
    // chunk size is a residency knob, not a model parameter).
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

TEST(DriverCli, StoreFlagsParse)
{
    const DriverArgs args = parse({"--experiment", "fig7", "--store",
                                   "results", "--rerun"});
    EXPECT_EQ(args.storePath, "results");
    EXPECT_TRUE(args.rerun);
    EXPECT_FALSE(args.options.has("store"));

    const DriverArgs eq = parse(
        {"--experiment=fig7", "--store=results", "--baseline=b.jsonl"});
    EXPECT_EQ(eq.storePath, "results");
    EXPECT_EQ(eq.baselinePath, "b.jsonl");
    // --rerun is boolean; the =value spelling must not leak into the
    // experiment options.
    parse({"--rerun=1"}, /*expect_ok=*/false);
}

TEST(DriverCli, RemovedIndexShardsOptionIsRejected)
{
    // Every spelling fails with the same message; none may fall
    // through to the key=value store, where "index-shards" would join
    // the result-store fingerprint without changing any result.
    for (const std::vector<const char *> &tokens :
         {std::vector<const char *>{"--index-shards", "4"},
          std::vector<const char *>{"--index-shards=4"},
          std::vector<const char *>{"index-shards=4"}}) {
        std::vector<const char *> argv = {"driver", "-e", "fig7"};
        argv.insert(argv.end(), tokens.begin(), tokens.end());
        DriverArgs args;
        std::string error;
        EXPECT_FALSE(parseDriverArgs(static_cast<int>(argv.size()),
                                     const_cast<char **>(argv.data()),
                                     args, error))
            << tokens[0];
        EXPECT_EQ(error, "--index-shards was removed: index-table "
                         "sharding never changed results; drop the "
                         "option")
            << tokens[0];
        EXPECT_FALSE(args.options.has("index-shards")) << tokens[0];
    }
}

TEST(DriverCli, ShardParses)
{
    const DriverArgs args = parse(
        {"--experiment", "fig7", "--store", "s", "--shard", "2/4"});
    EXPECT_EQ(args.shardIndex, 2u);
    EXPECT_EQ(args.shardCount, 4u);
    EXPECT_EQ(parse({"-e", "fig7", "--store=s", "--shard=1/1"})
                  .shardCount,
              1u);

    parse({"-e", "fig7", "--store", "s", "--shard", "0/4"},
          /*expect_ok=*/false);
    parse({"-e", "fig7", "--store", "s", "--shard", "5/4"},
          /*expect_ok=*/false);
    parse({"-e", "fig7", "--store", "s", "--shard", "nope"},
          /*expect_ok=*/false);
    // Sharded runs exist only as store records: --store is required.
    parse({"-e", "fig7", "--shard", "1/4"}, /*expect_ok=*/false);
}

TEST(DriverCli, ResultsModeCollectsOperands)
{
    const DriverArgs diff = parse({"--results", "diff", "before.jsonl",
                                   "after_store", "rel_tol=0.05"});
    EXPECT_EQ(diff.resultsCmd, "diff");
    ASSERT_EQ(diff.resultsArgs.size(), 2u);
    EXPECT_EQ(diff.resultsArgs[0], "before.jsonl");
    EXPECT_EQ(diff.resultsArgs[1], "after_store");
    EXPECT_EQ(diff.options.getDouble("rel_tol", 0.0), 0.05);

    const DriverArgs show =
        parse({"--results=show", "8dd8", "--store", "results"});
    EXPECT_EQ(show.resultsCmd, "show");
    ASSERT_EQ(show.resultsArgs.size(), 1u);
    EXPECT_EQ(show.resultsArgs[0], "8dd8");

    // Bare operands stay rejected outside results mode.
    parse({"--experiment", "fig7", "bogus"}, /*expect_ok=*/false);
}

} // namespace
} // namespace stms::driver
