/** @file Pins the model output: the fig7, fig9 and mem_tech_sweep
 *  plans, run serially at records=8192, must fold to fixed model
 *  digests. fig7 covers the bounded index table in functional mode;
 *  fig9's ideal runs cover the unbounded table and its timing runs the
 *  MSHR map on the fixed backend; mem_tech_sweep pins the event order
 *  of the queued and DRAM backends, which schedule their own events;
 *  a long-latency replay pins events scheduled beyond the event
 *  queue's timing wheel. fig7 at the benchmark's length is pinned
 *  through a worker pool against its serial digest, which also checks
 *  fan-out == serial. A digest change means some model output
 *  changed — intended changes update the constants and say why. */

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

/** FNV-1a over every run of @p name's plan, in plan order, run on
 *  @p threads workers. */
std::uint64_t
planDigest(const char *name, const Options &options, std::uint32_t threads)
{
    const Experiment *experiment = ExperimentRegistry::global().find(name);
    EXPECT_NE(experiment, nullptr) << name;
    if (experiment == nullptr)
        return 0;
    TraceCache traces;
    RunnerConfig config;
    config.threads = threads;
    ExperimentRunner runner(traces, config);
    const RunSet runs = runner.execute(*experiment, options);
    std::uint64_t digest = kFnv1aOffset;
    for (const RunSpec &spec : experiment->plan(options))
        digest = results::foldModelDigest(digest, spec.id,
                                          runs.at(spec.id));
    return digest;
}

std::uint64_t
serialDigest(const char *name,
             std::initializer_list<std::pair<const char *, const char *>>
                 extra = {})
{
    Options options;
    options.set("records", "8192");
    for (const auto &[key, value] : extra)
        options.set(key, value);
    return planDigest(name, options, 1);
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

// fig7 at records=65536 is the sweep sweepbench's fig7-serial
// workload times; its serial digest is that benchmark's FIG7_DIGEST.
// Four workers must reproduce it: the worker count schedules runs and
// never changes them.
TEST(ModelDigest, Fig7AtBenchmarkLengthIsPinned)
{
    Options options;
    options.set("records", "65536");
    EXPECT_EQ(planDigest("fig7", options, 4), 0x30b47d48c5101b9eULL);
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
