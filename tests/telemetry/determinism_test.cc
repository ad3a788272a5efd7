/** @file Telemetry determinism: tracing and sampling are observers.
 *
 *  The ISSUE-8 contract, verified here at the runner layer (the CI
 *  smoke job repeats it end-to-end through the driver binary):
 *
 *   - a sweep with --trace-out and --sample-every produces a report
 *     byte-identical to an uninstrumented sweep, across
 *     threads {1,2,4};
 *   - sampler epochs are a pure function of the access stream, so
 *     for fixed seeds the sampled series is identical across
 *     repeats and thread counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/trace_cache.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_writer.hh"

namespace stms::driver
{
namespace
{

namespace fs = std::filesystem;

constexpr const char *kExperiment = "table2";
constexpr const char *kRecords = "2048";
constexpr std::uint64_t kSampleEvery = 512;

Options
tinyOptions()
{
    Options options;
    options.set("records", kRecords);
    return options;
}

const Experiment &
experiment()
{
    const Experiment *found =
        ExperimentRegistry::global().find(kExperiment);
    EXPECT_NE(found, nullptr);
    return *found;
}

/** Run the experiment and return the report JSON — the same document
 *  the driver emits under --no-timing --json (timing is attached
 *  separately by the CLI and never part of Report::toJson()). */
std::string
sweepJson(std::uint32_t threads, bool telemetry,
          ExecStats *stats = nullptr)
{
    RunnerConfig config;
    config.threads = threads;
    config.sampleEvery = telemetry ? kSampleEvery : 0;
    config.progress = telemetry::ProgressMode::Off;

    TraceCache cache;
    ExperimentRunner runner(cache, config);

    if (!telemetry)
        return runner.run(experiment(), tinyOptions(), stats).toJson();

    // ctest runs each test in its own process, side by side: the
    // test's name keeps two tests from writing one temp file.
    const std::string path =
        (fs::temp_directory_path() /
         ("stms_determinism_" +
          std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
          "_" + std::to_string(threads) + ".json"))
            .string();
    telemetry::TraceSink sink(path);
    telemetry::installTraceSink(&sink);
    const std::string json =
        runner.run(experiment(), tinyOptions(), stats).toJson();
    telemetry::installTraceSink(nullptr);
    EXPECT_GT(sink.eventCount(), 0u)
        << "instrumented sweep recorded no trace events";
    std::string error;
    EXPECT_TRUE(sink.close(error)) << error;
    fs::remove(path);
    return json;
}

/** Flatten every run's sampled series into one comparable string. */
std::string
sampledSeries(std::uint32_t threads)
{
    ExecStats stats;
    sweepJson(threads, true, &stats);
    EXPECT_EQ(stats.sampleEvery, kSampleEvery);
    EXPECT_FALSE(stats.sampleColumns.empty());

    std::ostringstream out;
    for (const RunTiming &run : stats.runs) {
        out << run.id << ":";
        for (const auto &row : run.samples.rows) {
            out << " [" << row.accesses << "," << row.cycle;
            for (const double value : row.values)
                out << "," << value;
            out << "]";
        }
        out << "\n";
    }
    EXPECT_NE(out.str().find('['), std::string::npos)
        << "sweep produced no sampled rows";
    return out.str();
}

TEST(TelemetryDeterminism, ReportBytesUnchangedByInstrumentation)
{
    // One uninstrumented reference; every thread count must match
    // it.
    const std::string reference = sweepJson(1, false);
    ASSERT_FALSE(reference.empty());

    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(sweepJson(threads, false), reference)
            << "threads=" << threads << " (uninstrumented)";
        EXPECT_EQ(sweepJson(threads, true), reference)
            << "threads=" << threads << " (trace + sampler enabled)";
    }
}

TEST(TelemetryDeterminism, SampledEpochsDeterministicAcrossSchedules)
{
    const std::string reference = sampledSeries(1);
    EXPECT_EQ(sampledSeries(1), reference) << "repeat run";
    EXPECT_EQ(sampledSeries(2), reference) << "threads=2";
    EXPECT_EQ(sampledSeries(4), reference) << "threads=4";
}

} // namespace
} // namespace stms::driver
