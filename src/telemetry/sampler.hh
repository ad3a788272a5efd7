/**
 * @file
 * Epoch sampler: periodic snapshots of simulator counters.
 *
 * `--sample-every N` snapshots a registry of probes (coverage,
 * accuracy, MLP, MSHR/queue depths, row-buffer hit rates) every N
 * accessed cycles into a per-run time series. The series follows the
 * `timing` conventions: it renders only under the report's `timing`
 * key (so `--no-timing` output byte-compares against an
 * uninstrumented run), never enters the run codec or the model
 * digests, and reads counters without mutating them — epochs are a
 * pure function of the access stream, hence deterministic for fixed
 * seeds regardless of the thread count.
 *
 * The hot-path hook lives in MemorySystem (one compare against a
 * threshold parked at "never" when disabled — the same trick as the
 * prefetcher's IssueBarrier); this file only owns the registry, the
 * series container, and the sweep-wide `--sample-every` default.
 */

#ifndef STMS_TELEMETRY_SAMPLER_HH
#define STMS_TELEMETRY_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace stms::telemetry
{

/** One run's sampled time series (column-named rows). */
struct SampleSeries
{
    /** Epoch length in accessed cycles (0 = sampling was off). */
    std::uint64_t every = 0;

    /** Probe names, in row-value order. */
    std::vector<std::string> columns;

    struct Row
    {
        std::uint64_t accesses = 0;  ///< Access count at snapshot.
        std::uint64_t cycle = 0;     ///< Simulated cycle at snapshot.
        std::vector<double> values;  ///< One per column.
    };

    std::vector<Row> rows;

    bool empty() const { return rows.empty(); }
};

/**
 * Registry of named probes plus the accumulated series. Owned by
 * CmpSystem; single-threaded like the simulator itself.
 */
class EpochSampler
{
  public:
    using Probe = std::function<double()>;

    /** Arm with an epoch length (0 disables; probes may still be
     *  registered — they are simply never read). */
    void configure(std::uint64_t every);

    bool enabled() const { return every_ != 0; }
    std::uint64_t every() const { return every_; }

    /** Register a probe; order defines the column order. */
    void addCounter(std::string name, Probe probe);

    /** Snapshot every probe into a new row. */
    void sample(std::uint64_t accesses, std::uint64_t cycle);

    /** Discard rows collected so far (warmup boundary). */
    void discardRows();

    /** Move the series out (leaves the sampler empty). */
    SampleSeries take();

    const SampleSeries &series() const { return series_; }

  private:
    std::uint64_t every_ = 0;
    std::vector<Probe> probes_;
    SampleSeries series_;
};

/** Sweep-wide default epoch (the CLI's `--sample-every`), consumed
 *  by the runner chokepoint so nested runners — perf_suite's inner
 *  sweeps included — inherit it without threading a flag through
 *  every config. 0 = disabled. Never joins Options, so it can never
 *  perturb model output. */
void setGlobalSampleEvery(std::uint64_t every);
std::uint64_t globalSampleEvery();

} // namespace stms::telemetry

#endif // STMS_TELEMETRY_SAMPLER_HH
