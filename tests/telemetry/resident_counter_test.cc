/** @file The trace_cache.resident_kb counter follows what the trace
 *  cache holds: it steps up when a trace is generated and down when
 *  the runner releases it after its last run. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/trace_cache.hh"
#include "telemetry/trace_writer.hh"

namespace stms::driver
{
namespace
{

namespace fs = std::filesystem;

/** One base-system run on each of two workloads. */
class TwoTraceSweep : public ExperimentBase
{
  public:
    TwoTraceSweep()
        : ExperimentBase("two-trace-sweep", "test-only 2-trace plan")
    {}

    std::vector<RunSpec>
    plan(const Options &) const override
    {
        std::vector<RunSpec> specs;
        for (const char *workload : {"oltp-db2", "web-apache"}) {
            RunSpec spec;
            spec.id = workload;
            spec.workload = workload;
            spec.records = 1024;
            spec.config.sim = defaultSimConfig(true);
            specs.push_back(spec);
        }
        return specs;
    }

    Report
    report(const Options &, const RunSet &) const override
    {
        return Report(name());
    }
};

/** The values of every sample on counter track @p track, in the
 *  order the trace file lists them (timestamp order). */
std::vector<double>
counterSamples(const std::string &json, const std::string &track)
{
    const std::string needle =
        "\"name\":\"" + track + "\",\"args\":{\"value\":";
    std::vector<double> values;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
        values.push_back(
            std::strtod(json.c_str() + pos + needle.size(), nullptr));
    return values;
}

TEST(ResidentCounter, FallsToZeroAfterASerialSweep)
{
    const std::string path =
        (fs::temp_directory_path() / "stms_resident_counter_test.json")
            .string();
    TraceCache cache;
    RunnerConfig config;
    config.progress = telemetry::ProgressMode::Off;
    ExperimentRunner runner(cache, config);

    telemetry::TraceSink sink(path);
    telemetry::installTraceSink(&sink);
    runner.execute(TwoTraceSweep(), Options{});
    telemetry::installTraceSink(nullptr);
    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;

    std::ifstream in(path, std::ios::binary);
    std::ostringstream json;
    json << in.rdbuf();
    fs::remove(path);

    // Serially, each trace is generated, run once and released before
    // the next one: up, down, up, down.
    const std::vector<double> samples =
        counterSamples(json.str(), "trace_cache.resident_kb");
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_GT(samples[0], 0.0);
    EXPECT_EQ(samples[1], 0.0);
    EXPECT_GT(samples[2], 0.0);
    EXPECT_EQ(samples.back(), 0.0);
}

} // namespace
} // namespace stms::driver
