/** @file Determinism tests of the fan-out run scheduler: every
 *  worker count must produce byte-identical reports. */

#include <gtest/gtest.h>

#include <algorithm>

#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/trace_cache.hh"

namespace stms::driver
{
namespace
{

const Experiment *
testExperiment()
{
    const Experiment *experiment =
        ExperimentRegistry::global().find("table2");
    EXPECT_NE(experiment, nullptr);
    return experiment;
}

Options
testOptions()
{
    Options options;
    options.set("records", "1024");
    return options;
}

std::string
runSchedule(std::uint32_t threads)
{
    TraceCache cache;
    RunnerConfig config;
    config.threads = threads;
    ExperimentRunner runner(cache, config);
    ExecStats stats;
    const Report report =
        runner.run(*testExperiment(), testOptions(), &stats);
    EXPECT_EQ(stats.threadsResolved,
              std::min<std::size_t>(threads, stats.planned));
    EXPECT_EQ(stats.runs.size(), stats.planned);
    return report.toJson();
}

TEST(PipelineDeterminism, ThreadsByPipelineMatrixIsBitIdentical)
{
    // Fan-out is the only schedule; its worker count is the matrix.
    const std::string reference = runSchedule(/*threads=*/1);
    ASSERT_FALSE(reference.empty());
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(runSchedule(threads), reference)
            << "threads=" << threads;
    }
}

/** toJson() with its "timing" object cut out. */
std::string
withoutTiming(const std::string &json)
{
    const std::string close = "\n  },\n";
    const std::size_t start = json.find("  \"timing\": {\n");
    const std::size_t end = json.find(close, start);
    if (start == std::string::npos || end == std::string::npos)
        return json;
    return json.substr(0, start) + json.substr(end + close.size());
}

TEST(PipelineDeterminism, TimingNeverEntersTheModelReport)
{
    // setTiming adds the timing key to toJson() but leaves the model
    // output — metrics(), tables() and the rest of the JSON, what
    // the golden reports and determinism gates compare — untouched.
    TraceCache cache;
    ExperimentRunner runner(cache);
    ExecStats stats;
    Report report =
        runner.run(*testExperiment(), testOptions(), &stats);
    const auto metrics_before = report.metrics();
    const auto tables_before = report.tables();
    const std::string json_before = report.toJson();

    ReportTiming timing;
    timing.present = true;
    timing.wallSeconds = stats.wallSeconds;
    timing.threads = stats.threadsResolved;
    timing.runs = stats.runs;
    report.setTiming(timing);

    EXPECT_EQ(report.metrics(), metrics_before);
    ASSERT_EQ(report.tables().size(), tables_before.size());
    for (std::size_t t = 0; t < tables_before.size(); ++t) {
        EXPECT_EQ(report.tables()[t].title, tables_before[t].title);
        EXPECT_EQ(report.tables()[t].table.headers(),
                  tables_before[t].table.headers());
        EXPECT_EQ(report.tables()[t].table.rows(),
                  tables_before[t].table.rows());
    }
    const std::string json_after = report.toJson();
    EXPECT_NE(json_after, json_before);
    EXPECT_NE(json_after.find("\"timing\""), std::string::npos);
    EXPECT_EQ(json_before.find("\"timing\""), std::string::npos);
    EXPECT_EQ(withoutTiming(json_after), json_before);
}

} // namespace
} // namespace stms::driver
