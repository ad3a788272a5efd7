/**
 * @file
 * Structured experiment results.
 *
 * An experiment's report() produces one Report: named scalar metrics
 * (flat, ordered, machine-diffable — the determinism tests compare
 * these), one or more titled tables (the human rendering of a paper
 * figure), and free-form notes (the "shape check" commentary the old
 * bench binaries printed). The report renders either as the familiar
 * aligned-text output or as JSON for downstream plotting.
 */

#ifndef STMS_DRIVER_REPORT_HH
#define STMS_DRIVER_REPORT_HH

#include <string>
#include <utility>
#include <vector>

#include "results/json.hh"
#include "stats/table.hh"
#include "telemetry/sampler.hh"

namespace stms::driver
{

// The JSON writing helpers live in the results layer (trace export
// and the sweep benchmark share them); the driver spellings remain
// the canonical ones for report sinks and tests.
using results::jsonEscape;
using results::jsonNumber;

/** One titled table of an experiment's output. */
struct ReportTable
{
    std::string title;
    Table table;
};

/** Stage timings of one executed run (seconds), for the timing key.
 *  Also the runner's per-run accounting record (runner.hh aliases
 *  this as RunTiming). */
struct ReportRunTiming
{
    std::string id;
    double acquireSeconds = 0;   ///< Trace pin/generation (or open).
    double simulateSeconds = 0;  ///< System construction + run.
    double wallSeconds = 0;      ///< Sum of the stages.
    std::uint64_t records = 0;   ///< Trace records simulated.
    /** Peak record chunks resident for this run (chunked pipeline
     *  schedule only; 0 elsewhere). */
    std::uint64_t peakResidentChunks = 0;
    /** Epoch-sampled counter series (`--sample-every`; empty when
     *  sampling is off). Lives under the timing key like every other
     *  non-model observation, so it never perturbs the model output
     *  or `--no-timing` byte-compares. */
    telemetry::SampleSeries samples;
};

/**
 * Execution timing metadata attached to a report.
 *
 * Rendered under the JSON "timing" key, and ONLY there: timing is
 * noise, not model output, so it never reaches metrics() or
 * tables() — the model output the golden reports and the determinism
 * gates compare. Gates that byte-compare reports must run the driver
 * with --no-timing (or strip the key).
 */
struct ReportTiming
{
    bool present = false;
    double wallSeconds = 0;
    double acquireSeconds = 0;
    double simulateSeconds = 0;
    std::uint32_t threads = 0;  ///< Resolved worker count.
    bool pipelined = false;
    std::uint64_t records = 0;  ///< Trace records simulated.
    double recordsPerSecond = 0;
    std::uint64_t peakRssKb = 0;
    /** Records per streamed chunk (chunked pipeline; 0 = whole-trace
     *  hand-off / serial schedule). */
    std::uint64_t chunkRecords = 0;
    /** Peak chunks resident at once across all concurrent runs — the
     *  pipeline's bounded-residency witness. A regression here is the
     *  RSS blow-up BENCH_5 caught only post-hoc, now visible in every
     *  timing artifact. */
    std::uint64_t peakResidentChunks = 0;
    /** Sampling epoch in accessed cycles (0 = sampling off; only a
     *  non-zero epoch renders sampler keys, so default timing JSON
     *  is byte-identical to the pre-telemetry format). */
    std::uint64_t sampleEvery = 0;
    /** Probe names, in per-run sample row order. */
    std::vector<std::string> sampleColumns;
    std::vector<ReportRunTiming> runs;
};

/** Everything one experiment reports. */
class Report
{
  public:
    explicit Report(std::string experiment)
        : experiment_(std::move(experiment))
    {}

    /** Record a scalar metric; insertion order is preserved. */
    void addMetric(const std::string &name, double value);

    /** Append a titled table. */
    void addTable(std::string title, Table table);

    /** Append a line of commentary (rendered after the tables). */
    void addNote(const std::string &note);

    /** Attach execution timing (rendered under the "timing" key). */
    void setTiming(ReportTiming timing)
    {
        timing_ = std::move(timing);
    }

    const ReportTiming &timing() const { return timing_; }

    const std::string &experiment() const { return experiment_; }
    const std::vector<std::pair<std::string, double>> &
    metrics() const
    {
        return metrics_;
    }
    const std::vector<ReportTable> &tables() const { return tables_; }

    /** Human rendering: tables, then notes. */
    std::string toText() const;

    /** Machine rendering: {experiment, metrics{}, tables[]}. The
     *  output is byte-deterministic for identical inputs. */
    std::string toJson() const;

  private:
    std::string experiment_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<ReportTable> tables_;
    std::vector<std::string> notes_;
    ReportTiming timing_;
};

} // namespace stms::driver

#endif // STMS_DRIVER_REPORT_HH
