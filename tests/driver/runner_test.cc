/** @file Tests of the ExperimentRunner: trace caching and release,
 *  plan execution, and the determinism guarantee that a parallel
 *  sweep is bit-identical to a serial one. */

#include <gtest/gtest.h>

#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/trace_cache.hh"

namespace stms::driver
{
namespace
{

constexpr std::uint64_t kTestRecords = 4096;

/** A cheap 2-config sweep: base vs idealized STMS on one workload in
 *  functional (no-timing) mode. */
class TinySweep : public ExperimentBase
{
  public:
    TinySweep()
        : ExperimentBase("tiny-sweep", "test-only 2-config sweep")
    {}

    std::vector<RunSpec>
    plan(const Options &options) const override
    {
        const std::uint64_t records =
            plannedRecords(options, kTestRecords);
        std::vector<RunSpec> specs;
        for (const char *workload : {"oltp-db2", "web-apache"}) {
            RunSpec base;
            base.id = std::string(workload) + "/base";
            base.workload = workload;
            base.records = records;
            base.config.sim = defaultSimConfig(true);
            specs.push_back(base);

            RunSpec ideal = base;
            ideal.id = std::string(workload) + "/ideal";
            ideal.config.stms = makeIdealTmsConfig();
            specs.push_back(ideal);
        }
        return specs;
    }

    Report
    report(const Options &, const RunSet &runs) const override
    {
        Report out(name());
        for (const char *workload : {"oltp-db2", "web-apache"}) {
            const RunOutput &base =
                runs.at(std::string(workload) + "/base");
            const RunOutput &ideal =
                runs.at(std::string(workload) + "/ideal");
            out.addMetric(std::string(workload) + ".base.reads",
                          static_cast<double>(
                              base.sim.mem.offchipReads));
            out.addMetric(std::string(workload) + ".ideal.coverage",
                          ideal.stmsCoverage);
            out.addMetric(std::string(workload) + ".ideal.ipc",
                          ideal.sim.ipc);
        }
        return out;
    }
};

TEST(TraceCache, GeneratesOnceAndReturnsSameInstance)
{
    TraceCache cache;
    const TraceCache::Handle first =
        cache.acquire("oltp-db2", kTestRecords);
    const TraceCache::Handle second =
        cache.acquire("oltp-db2", kTestRecords);
    EXPECT_EQ(&first.trace(), &second.trace());
    EXPECT_EQ(cache.generations(), 1u);

    const TraceCache::Handle other =
        cache.acquire("oltp-db2", kTestRecords / 2);
    EXPECT_NE(&first.trace(), &other.trace());
    EXPECT_EQ(other.trace().perCore.at(0).size(), kTestRecords / 2);
    EXPECT_EQ(cache.generations(), 2u);
}

TEST(ExperimentRunner, ExecutesEveryPlannedRun)
{
    TraceCache cache;
    ExperimentRunner runner(cache);
    TinySweep experiment;
    const RunSet runs = runner.execute(experiment, Options{});
    EXPECT_EQ(runs.size(), 4u);
    EXPECT_TRUE(runs.has("oltp-db2/base"));
    EXPECT_TRUE(runs.has("web-apache/ideal"));
    // Traces this short see no stream recurrence (reuse distances
    // start at 48K records), so assert activity rather than coverage:
    // the base system missed, and STMS logged those misses.
    EXPECT_GT(runs.at("oltp-db2/base").sim.mem.offchipReads, 0u);
    EXPECT_GT(runs.at("oltp-db2/ideal").stmsInternal.logged, 0u);
}

TEST(ExperimentRunner, GeneratesEachTraceOncePerPlanAndFreesItAfter)
{
    // TinySweep plans two runs on each of two traces.
    for (const std::uint32_t threads : {1u, 4u}) {
        TraceCache cache;
        RunnerConfig config;
        config.threads = threads;
        ExperimentRunner runner(cache, config);
        runner.execute(TinySweep(), Options{});
        EXPECT_EQ(cache.generations(), 2u)
            << "threads=" << threads << ": regenerated inside a plan";

        // The last run of each trace released it, so acquiring it
        // again generates it again.
        cache.acquire("oltp-db2", kTestRecords);
        EXPECT_EQ(cache.generations(), 3u) << "threads=" << threads;
        cache.acquire("web-apache", kTestRecords);
        EXPECT_EQ(cache.generations(), 4u) << "threads=" << threads;
    }
}

TEST(ExperimentRunner, ParallelSweepIsBitIdenticalToSerial)
{
    TinySweep experiment;
    Options options;

    TraceCache serial_cache;
    RunnerConfig serial_config;
    serial_config.threads = 1;
    ExperimentRunner serial(serial_cache, serial_config);
    const Report serial_report = serial.run(experiment, options);

    TraceCache parallel_cache;
    RunnerConfig parallel_config;
    parallel_config.threads = 4;
    ExperimentRunner parallel(parallel_cache, parallel_config);
    const Report parallel_report = parallel.run(experiment, options);

    // Metric-by-metric bitwise equality, then whole-document equality
    // (the CLI writes the latter to --json).
    ASSERT_EQ(serial_report.metrics().size(),
              parallel_report.metrics().size());
    for (std::size_t i = 0; i < serial_report.metrics().size(); ++i) {
        EXPECT_EQ(serial_report.metrics()[i].first,
                  parallel_report.metrics()[i].first);
        EXPECT_EQ(serial_report.metrics()[i].second,
                  parallel_report.metrics()[i].second)
            << serial_report.metrics()[i].first;
    }
    EXPECT_EQ(serial_report.toJson(), parallel_report.toJson());
}

TEST(ExperimentRunner, RepeatedSerialRunsAreBitIdentical)
{
    TinySweep experiment;
    TraceCache cache;
    ExperimentRunner runner(cache);
    const std::string first =
        runner.run(experiment, Options{}).toJson();
    const std::string second =
        runner.run(experiment, Options{}).toJson();
    EXPECT_EQ(first, second);
}

TEST(ExperimentRunner, BuiltinExperimentEndToEnd)
{
    // The real "table2" experiment through the real registry, tiny
    // trace: exercises registry lookup -> plan -> run -> report.
    const Experiment *experiment =
        ExperimentRegistry::global().find("table2");
    ASSERT_NE(experiment, nullptr);

    Options options;
    options.set("records", "2048");
    TraceCache cache;
    RunnerConfig config;
    config.threads = 2;
    ExperimentRunner runner(cache, config);
    const Report report = runner.run(*experiment, options);

    EXPECT_EQ(report.experiment(), "table2");
    EXPECT_FALSE(report.metrics().empty());
    EXPECT_FALSE(report.tables().empty());
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"experiment\": \"table2\""),
              std::string::npos);
    EXPECT_NE(json.find("sci-moldyn.mlp"), std::string::npos);
}

} // namespace
} // namespace stms::driver
