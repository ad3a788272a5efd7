/** @file Pins the model output: the fig7, fig9 and mem_tech_sweep
 *  plans, run serially at records=8192, must fold to fixed model
 *  digests. fig7 covers the bounded index table in functional mode;
 *  fig9's ideal runs cover the unbounded table and its timing runs the
 *  MSHR map on the fixed backend; mem_tech_sweep pins the event order
 *  of the queued and DRAM backends, which schedule their own events;
 *  a long-latency replay pins events scheduled beyond the event
 *  queue's timing wheel. A digest change means some model
 *  output changed — intended changes update the constants and say
 *  why. */

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

#include "common/config.hh"
#include "common/hash.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "results/run_codec.hh"

namespace stms::driver
{
namespace
{

std::uint64_t
serialDigest(const char *name,
             std::initializer_list<std::pair<const char *, const char *>>
                 extra = {})
{
    const Experiment *experiment = ExperimentRegistry::global().find(name);
    EXPECT_NE(experiment, nullptr) << name;
    if (experiment == nullptr)
        return 0;
    Options options;
    options.set("records", "8192");
    for (const auto &[key, value] : extra)
        options.set(key, value);
    TraceCache traces;
    ExperimentRunner runner(traces, RunnerConfig{});
    const RunSet runs = runner.execute(*experiment, options);
    std::uint64_t digest = kFnv1aOffset;
    for (const RunSpec &spec : experiment->plan(options))
        digest = results::foldModelDigest(digest, spec.id,
                                          runs.at(spec.id));
    return digest;
}

TEST(ModelDigest, Fig7AndFig9ArePinned)
{
    EXPECT_EQ(serialDigest("fig7"), 0xdff5cd020896daa0ULL);
    EXPECT_EQ(serialDigest("fig9"), 0x0e3ba7540db43591ULL);
}

TEST(ModelDigest, MemTechSweepIsPinned)
{
    EXPECT_EQ(serialDigest("mem_tech_sweep"), 0xfe4f815c80851495ULL);
}

TEST(ModelDigest, LongHorizonBackendIsPinned)
{
    // A 6,000-cycle access latency puts every memory completion 4,096
    // or more ticks ahead, so each one is scheduled past the event
    // queue's timing wheel and must come back in (tick, seq) order.
    EXPECT_EQ(serialDigest("ingest_replay",
                           {{"workload", "dss-db2"},
                            {"mem-backend", "fixed,latency=6000"}}),
              0x6e6f8529ef4d9882ULL);
}

// The fixed backend is the queued model at one channel, so spelling
// it that way must reproduce the fixed pins above.
TEST(ModelDigest, Fig9OnOneQueuedChannelIsPinned)
{
    EXPECT_EQ(serialDigest("fig9", {{"mem-backend", "queued,channels=1"}}),
              0x0e3ba7540db43591ULL);
}

TEST(ModelDigest, LongHorizonOnOneQueuedChannelIsPinned)
{
    EXPECT_EQ(serialDigest("ingest_replay",
                           {{"workload", "dss-db2"},
                            {"mem-backend",
                             "queued,channels=1,latency=6000"}}),
              0x6e6f8529ef4d9882ULL);
}

} // namespace
} // namespace stms::driver
