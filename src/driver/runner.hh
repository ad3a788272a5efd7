/**
 * @file
 * ExperimentRunner — executes an experiment's plan.
 *
 * The runner turns a plan into completed outputs. Each run passes
 * through two stages:
 *
 *   acquire   take the synthetic trace from the TraceCache
 *             (generating it on first use), or open an ingested
 *             trace;
 *   simulate  build an isolated System/EventQueue and run it.
 *
 * One schedule executes them: a pool of worker threads, each running
 * both stages of one run back to back (fan-out). Outputs are stored
 * by plan index and keyed by id, so a report assembled from them is
 * bit-identical to serial execution, the same discipline the
 * `--threads N` gates check.
 *
 * Wall-clock timing of every stage is collected into ExecStats; it is
 * reporting metadata only and never reaches the model output (timing
 * is noise, not model output).
 */

#ifndef STMS_DRIVER_RUNNER_HH
#define STMS_DRIVER_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/trace_cache.hh"
#include "telemetry/progress.hh"
#include "telemetry/sampler.hh"

namespace stms::driver
{

/** Runner knobs (shared by the CLI and tests). */
struct RunnerConfig
{
    /** Worker threads; 1 runs on the calling thread, 0 auto-detects
     *  std::thread::hardware_concurrency(). */
    std::uint32_t threads = 1;
    /**
     * Telemetry: epoch-sample simulator counters every N accesses
     * into the per-run timing series (0 = off; the CLI sets it from
     * --sample-every). Never joins Options or the model output.
     */
    std::uint64_t sampleEvery = 0;
    /** Live sweep progress line (Auto = only when stderr is a TTY). */
    telemetry::ProgressMode progress = telemetry::ProgressMode::Auto;
};

/** Wall-clock stage timings of one executed run (seconds). The same
 *  struct the Report renders under its timing key, so the runner's
 *  accounting and the JSON cannot drift. */
using RunTiming = ReportRunTiming;

/** What execute() did with a plan (run and timing accounting). */
struct ExecStats
{
    std::size_t planned = 0;  ///< RunSpecs in the plan, all simulated.

    // Timing metadata (never model output; see file comment).
    std::uint32_t threadsResolved = 1;  ///< Actual worker count.
    double wallSeconds = 0;       ///< Whole execute() duration.
    double acquireSeconds = 0;    ///< Sum over executed runs.
    double simulateSeconds = 0;
    std::uint64_t recordsProcessed = 0;  ///< Trace records simulated.
    /** Sampling epoch in effect (0 = off) + probe column names. */
    std::uint64_t sampleEvery = 0;
    std::vector<std::string> sampleColumns;
    std::vector<RunTiming> runs;  ///< Executed runs, plan order.

    /** Aggregate simulation throughput (records / wall second). */
    double
    recordsPerSecond() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(recordsProcessed) /
                         wallSeconds
                   : 0.0;
    }
};

/** Peak resident set size of this process so far, in KiB. */
std::uint64_t peakRssKb();

/** Executes experiment plans over a shared trace cache. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(TraceCache &traces,
                              RunnerConfig config = {});

    /** Execute @p experiment's full plan and return its outputs. */
    RunSet execute(const Experiment &experiment,
                   const Options &options,
                   ExecStats *stats = nullptr) const;

    /** Plan, execute, and report in one call. */
    Report run(const Experiment &experiment, const Options &options,
               ExecStats *stats = nullptr) const;

    const RunnerConfig &config() const { return config_; }

    /** Worker threads actually used (0 in config = auto-detected). */
    std::uint32_t resolvedThreads() const { return resolvedThreads_; }

  private:
    TraceCache &traces_;
    RunnerConfig config_;
    std::uint32_t resolvedThreads_;
};

} // namespace stms::driver

#endif // STMS_DRIVER_RUNNER_HH
