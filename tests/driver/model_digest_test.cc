/** @file Pins the model output: the fig7, fig9 and mem_tech_sweep
 *  plans, run serially at records=8192, must fold to fixed model
 *  digests. fig7 covers the bounded index table in functional mode;
 *  fig9's ideal runs cover the unbounded table and its timing runs the
 *  MSHR map on the fixed-latency backend; mem_tech_sweep pins the
 *  event order of the queued and DRAM backends, which schedule their
 *  own events. A digest change means some model output changed —
 *  intended changes update the constants and say why. */

#include <gtest/gtest.h>

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
serialDigest(const char *name)
{
    const Experiment *experiment = ExperimentRegistry::global().find(name);
    EXPECT_NE(experiment, nullptr) << name;
    if (experiment == nullptr)
        return 0;
    Options options;
    options.set("records", "8192");
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

} // namespace
} // namespace stms::driver
