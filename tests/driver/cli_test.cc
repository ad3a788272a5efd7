/** @file Tests of the driver command-line parser, including the
 *  GNU-style --flag=value spellings and key=value passthrough. */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
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
    parse({"--no-timing=1"}, /*expect_ok=*/false);
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
    // Decimal digits only: no base prefix, sign or space.
    parse({"--threads", "0x4"}, /*expect_ok=*/false);
    parse({"--threads", "+3"}, /*expect_ok=*/false);
    parse({"--threads", " 3"}, /*expect_ok=*/false);
}

TEST(DriverCli, IntegerFlagsAreDecimal)
{
    // A leading zero does not switch to octal: 010 is 10, as in
    // records=010.
    EXPECT_EQ(parse({"--threads", "010"}).threads, 10u);
    EXPECT_EQ(parse({"--sample-every=010"}).sampleEvery, 10u);
    parse({"--sample-every", "0x10"}, /*expect_ok=*/false);
    parse({"--sample-every", "+8"}, /*expect_ok=*/false);
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
    EXPECT_TRUE(parse({}).timing);
    EXPECT_FALSE(parse({"--no-timing"}).timing);
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
    const std::string pipeline_msg =
        "--pipeline was removed: fan-out is the only schedule and "
        "gives the same results; use --threads N";
    const std::string chunk_msg =
        "--pipeline-chunk was removed: there is no pipelined schedule "
        "to chunk; drop the option";
    const std::string cache_msg =
        "--trace-cache-mb was removed: the trace cache keeps each "
        "trace it generates; drop the option";
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
        {{"--pipeline"}, pipeline_msg},
        {{"--pipeline=1"}, pipeline_msg},
        {{"pipeline=1"}, pipeline_msg},
        {{"--pipeline-chunk", "512"}, chunk_msg},
        {{"--pipeline-chunk=512"}, chunk_msg},
        {{"pipeline-chunk=512"}, chunk_msg},
        {{"--trace-cache-mb", "64"}, cache_msg},
        {{"--trace-cache-mb=64"}, cache_msg},
        {{"trace-cache-mb=64"}, cache_msg},
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
    const DriverArgs args = parse(
        {"storey=1", "--results-dir=x", "pipelines=2"});
    EXPECT_EQ(args.options.get("storey", ""), "1");
    EXPECT_EQ(args.options.get("results-dir", ""), "x");
    EXPECT_EQ(args.options.get("pipelines", ""), "2");
}

/**
 * Seeded mutation loop over the command line. Mutants of the valid
 * argv lists the tests above use drop, duplicate, swap, split
 * (`--x=v` into `--x v`) and join tokens, and flip, drop or insert
 * bytes. Each must either fail with a message, or parse to a worker
 * count and sampling epoch within their limits with no removed option
 * in the experiment options. A bare `mem-backend=...` token is
 * experiment-option passthrough, checked at plan time, so its value
 * is not checked here.
 */
TEST(DriverCli, MutantsFailCleanlyOrParse)
{
    const std::vector<std::vector<std::string>> seeds = {
        {"--experiment", "fig7", "--threads", "8", "--json", "o.json"},
        {"--experiment=fig9", "--threads=4", "--json=out.json"},
        {"--experiment", "fig7", "records=65536", "--sampling=0.5"},
        {"-e", "fig7", "--experiment=table2"},
        {"--experiment", "ingest_replay", "--trace", "a.stms",
         "--trace=b.core1.champsim,format=champsim"},
        {"--threads", "0"},
        {"--threads", "010"},
        {"--sample-every=010"},
        {"--sample-every", "1099511627776"},  // 2^40: the limit.
        {"--csv", "--verbose", "--no-timing", "--list", "--help"},
        {"storey=1", "--results-dir=x", "pipelines=2"},
        {"-e", "fig7", "--mem-backend", "queued,channels=4",
         "--trace-out", "t.json", "--sample-every", "4096",
         "--log-level", "info", "--no-progress", "-j", "4096"},
    };
    const std::string_view removed[] = {
        "index-shards", "store",    "rerun",
        "shard",        "results",  "baseline",
        "pipeline",     "pipeline-chunk", "trace-cache-mb",
    };
    const std::string inserted = "-=,+ 0123456789";
    const std::string flipped = "-=,+ 0123456789eijnorst.x";

    Rng rng(0xc11);
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    for (int n = 0; n < 4000; ++n) {
        std::vector<std::string> tokens = seeds[rng.below(seeds.size())];
        const int mutations = 1 + static_cast<int>(rng.below(3));
        for (int m = 0; m < mutations && !tokens.empty(); ++m) {
            const std::size_t at = rng.below(tokens.size());
            std::string &token = tokens[at];
            const auto where = [&](std::size_t from) {
                return tokens.begin() + static_cast<std::ptrdiff_t>(from);
            };
            const auto eq = token.find('=');
            switch (rng.below(8)) {
              case 0:
                tokens.erase(where(at));
                break;
              case 1:
                tokens.insert(where(at + 1), token);
                break;
              case 2:
                if (at + 1 < tokens.size())
                    std::swap(token, tokens[at + 1]);
                break;
              case 3:  // --x=v -> --x v
                if (token.starts_with('-') && eq != std::string::npos) {
                    std::string value = token.substr(eq + 1);
                    token.resize(eq);
                    tokens.insert(where(at + 1), std::move(value));
                }
                break;
              case 4:  // --x v -> --x=v
                if (token.starts_with('-') && eq == std::string::npos &&
                    at + 1 < tokens.size()) {
                    token += "=" + tokens[at + 1];
                    tokens.erase(where(at + 1));
                }
                break;
              case 5:
                if (!token.empty()) {
                    char &byte = token[rng.below(token.size())];
                    byte = rng.below(2) != 0
                               ? flipped[rng.below(flipped.size())]
                               : static_cast<char>(byte ^
                                                   (1 << rng.below(8)));
                }
                break;
              case 6:
                if (!token.empty())
                    token.erase(rng.below(token.size()), 1);
                break;
              default:
                token.insert(token.begin() + static_cast<std::ptrdiff_t>(
                                                 rng.below(token.size() + 1)),
                             inserted[rng.below(inserted.size())]);
            }
        }

        std::string shown;
        std::vector<const char *> argv = {"driver"};
        for (const std::string &token : tokens) {
            shown += " '" + token + "'";
            argv.push_back(token.c_str());
        }
        SCOPED_TRACE("mutant" + shown);
        DriverArgs args;
        std::string error;
        if (!parseDriverArgs(static_cast<int>(argv.size()),
                             const_cast<char **>(argv.data()), args,
                             error)) {
            ++rejected;
            EXPECT_FALSE(error.empty());
        } else {
            ++accepted;
            EXPECT_LE(args.threads, 4096u);
            EXPECT_LE(args.sampleEvery, 1ULL << 40);
            for (const std::string_view name : removed)
                EXPECT_FALSE(args.options.has(std::string(name))) << name;
        }
        if (HasFailure())
            return;
    }
    // A mutator whose mutants all fail (or all parse) checks one side
    // only; this seed gives 1,893 parsed and 2,107 rejected.
    EXPECT_GT(accepted, 400u);
    EXPECT_GT(rejected, 400u);
}

} // namespace
} // namespace stms::driver
