/** @file Determinism tests of the pipelined run scheduler: every
 *  combination of threads x pipeline x chunk size must produce
 *  byte-identical reports. */

#include <gtest/gtest.h>

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
runSchedule(std::uint32_t threads, bool pipeline,
            std::uint64_t chunk_records = 0)
{
    TraceCache cache;
    RunnerConfig config;
    config.threads = threads;
    config.pipeline = pipeline;
    config.pipelineChunkRecords = chunk_records;
    ExperimentRunner runner(cache, config);
    ExecStats stats;
    const Report report =
        runner.run(*testExperiment(), testOptions(), &stats);
    EXPECT_EQ(stats.pipelined, pipeline);
    EXPECT_EQ(stats.runs.size(), stats.planned);
    return report.toJson();
}

TEST(PipelineDeterminism, ThreadsByPipelineMatrixIsBitIdentical)
{
    const std::string reference =
        runSchedule(/*threads=*/1, /*pipeline=*/false);
    ASSERT_FALSE(reference.empty());
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        for (bool pipeline : {false, true}) {
            EXPECT_EQ(runSchedule(threads, pipeline), reference)
                << "threads=" << threads
                << " pipeline=" << pipeline;
        }
    }
}

TEST(PipelineDeterminism, ChunkSizeNeverChangesModelOutput)
{
    // The streamed chunk size is a residency/overlap knob only: a
    // one-record chunk (maximum lane-queue churn and producer
    // parking), a chunk that misaligns with every internal boundary
    // (7), and the 64Ki default must all reproduce the serial bytes
    // at every worker count. This is the satellite acceptance gate:
    // digests byte-identical across chunk x threads x pipeline.
    const std::string reference =
        runSchedule(/*threads=*/1, /*pipeline=*/false);
    ASSERT_FALSE(reference.empty());
    for (std::uint64_t chunk :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{64 * 1024}}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            EXPECT_EQ(runSchedule(threads, /*pipeline=*/true, chunk),
                      reference)
                << "chunk=" << chunk << " threads=" << threads;
            // Chunk size is ignored off-pipeline (whole-trace
            // fan-out); it must not perturb that schedule either.
            EXPECT_EQ(runSchedule(threads, /*pipeline=*/false, chunk),
                      reference)
                << "chunk=" << chunk << " threads=" << threads
                << " (fan-out)";
        }
    }
}

TEST(PipelineDeterminism, BoundedTraceCacheDoesNotChangeResults)
{
    const std::string reference = runSchedule(1, false);
    // A cache too small to hold anything (every acquire regenerates)
    // and the no-cache mode both reproduce the reference bytes.
    for (std::uint64_t capacity : {std::uint64_t{1}, std::uint64_t{0}}) {
        TraceCache cache(capacity);
        RunnerConfig config;
        config.threads = 2;
        config.pipeline = true;
        ExperimentRunner runner(cache, config);
        const Report report =
            runner.run(*testExperiment(), testOptions());
        EXPECT_EQ(report.toJson(), reference)
            << "capacity=" << capacity;
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
