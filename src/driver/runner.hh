/**
 * @file
 * ExperimentRunner — executes an experiment's plan.
 *
 * The runner turns a plan into completed outputs. Each run passes
 * through two stages:
 *
 *   acquire   pin the synthetic trace in the TraceCache (generating
 *             it on first use), or open an ingested trace;
 *   simulate  build an isolated System/EventQueue and run it.
 *
 * Two schedules execute those stages:
 *
 *  - fan-out (default): a pool of worker threads, each running both
 *    stages of one run back to back.
 *  - pipelined (RunnerConfig::pipeline): stages exchange *bounded
 *    record chunks*, never whole traces. Each synthetic run streams
 *    through a ChunkedWorkloadSource (driver/chunk_stream.hh): a
 *    per-run producer thread resumes the lane generators chunk by
 *    chunk into bounded per-lane queues, and the simulator pool
 *    consumes through ordinary RecordCursors. Generation of run k's
 *    next chunk overlaps simulation of its current one (and of other
 *    runs), while peak residency stays
 *    runs-in-flight x lanes x O(1) chunks regardless of trace
 *    length. Ingest runs already stream bounded chunks from disk and
 *    are unchanged.
 *
 * Either way, outputs are stored by plan index and keyed by id, so a
 * report assembled from them is bit-identical to serial execution,
 * the same discipline the `--threads N` gates check.
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
    /** Stage-pipelined scheduling (acquire ahead of simulate). */
    bool pipeline = false;
    /** Records per streamed chunk in the pipelined schedule; 0 uses
     *  kDefaultPipelineChunkRecords (driver/chunk_stream.hh). Chunk
     *  size never changes model output — only residency and overlap
     *  granularity — and the pipeline tests assert exactly that. */
    std::uint64_t pipelineChunkRecords = 0;
    /**
     * Telemetry: epoch-sample simulator counters every N accesses
     * into the per-run timing series (0 = inherit the process-wide
     * telemetry::globalSampleEvery(), which the CLI's --sample-every
     * sets — so nested runners, e.g. perf_suite's inner sweeps,
     * follow the flag). Never joins Options or the model output.
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
    bool pipelined = false;
    double wallSeconds = 0;       ///< Whole execute() duration.
    double acquireSeconds = 0;    ///< Sum over executed runs.
    double simulateSeconds = 0;
    std::uint64_t recordsProcessed = 0;  ///< Trace records simulated.
    /** Records per streamed chunk (0 = whole-trace hand-off). */
    std::uint64_t chunkRecords = 0;
    /** Peak record chunks resident at once across concurrent runs —
     *  the chunked pipeline's bounded-residency witness. */
    std::uint64_t peakResidentChunks = 0;
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

/**
 * Reset the kernel's peak-RSS watermark to the current RSS (Linux
 * /proc/self/clear_refs), so per-phase peaks can be measured in one
 * process. Returns false when unsupported or denied — peakRssKb()
 * then keeps reporting the process-lifetime high-water mark.
 */
bool resetPeakRss();

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
