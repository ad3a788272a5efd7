/**
 * @file
 * One-call simulation entry point.
 *
 * Every experiment in the evaluation is some set of (trace,
 * configuration) points; runTrace() executes one such point — build a
 * CmpSystem, attach the base stride prefetcher plus the configured
 * optional prefetchers, run the trace, and derive the metrics every
 * driver consumes (coverage splits, speedup inputs, overhead
 * normalizations). This used to live in bench/harness.cc; it now sits
 * in src/sim so the driver subsystem, examples, and tests share one
 * implementation, and so independent runs can execute concurrently
 * (a run touches no global state beyond its own System/EventQueue).
 */

#ifndef STMS_SIM_RUN_HH
#define STMS_SIM_RUN_HH

#include <optional>

#include "core/stms.hh"
#include "prefetch/correlation_table.hh"
#include "sim/system.hh"
#include "workload/trace.hh"

namespace stms
{

/** One complete experiment point: system + attached prefetchers. */
struct RunConfig
{
    SimConfig sim;
    /** Attach an STMS prefetcher when present. */
    std::optional<StmsConfig> stms;
    /** Attach a single-table correlation prefetcher (Fig. 1 rivals). */
    std::optional<CorrelationConfig> correlation;
    /** Fraction of records issued before the stats reset. */
    double warmupFraction = 0.25;
};

/** Everything one simulation run yields for reporting. */
struct RunOutput
{
    SimResult sim;
    PrefetcherStats stride;
    PrefetcherStats stms;       ///< Zeroed when no STMS was attached.
    StmsStats stmsInternal;     ///< Copy of STMS-internal stats.
    std::uint64_t stmsMetaBytes = 0;

    /** STMS coverage in excess of the stride prefetcher. */
    double stmsCoverage = 0.0;
    /** Fully covered fraction only (Fig. 9 split). */
    double stmsFullCoverage = 0.0;
    /** Partially covered fraction only. */
    double stmsPartialCoverage = 0.0;
};

/** Table-1 system configuration. @p functional zeroes memory timing
 *  for trace-based coverage sweeps (Sec. 5.1 methodology). */
SimConfig defaultSimConfig(bool functional = false);

/** Execute one experiment point on @p trace. Thread-safe: concurrent
 *  calls on distinct or shared (const) traces do not interact. */
RunOutput runTrace(const Trace &trace, const RunConfig &config);

/**
 * Execute one experiment point on @p source — the streaming twin of
 * the Trace overload, used by the driver to replay on-disk traces in
 * bounded chunks. The source is consumed (each lane opened once);
 * build a fresh source per run. When the source cannot report its
 * total record count (e.g. a piped ChampSim trace), no warmup
 * barrier is placed regardless of RunConfig::warmupFraction.
 */
RunOutput runTrace(trace_io::TraceSource &source,
                   const RunConfig &config);

/** Relative speedup of @p opt over @p base (0.10 = +10%). */
double speedup(const SimResult &base, const SimResult &opt);

/**
 * Overhead bytes per base-system data byte, the paper's Fig. 7/8
 * normalization: useful traffic counts demand fetches, writebacks,
 * and consumed prefetches (data the base system would move anyway);
 * overhead counts meta-data traffic and erroneous prefetches.
 */
double overheadPerBaseByte(const RunOutput &out);

/** Base-system useful bytes (demand + writeback + consumed
 *  prefetches), the denominator of the Fig. 7/8 normalization. */
double usefulBaseBytes(const SimResult &result);

} // namespace stms

#endif // STMS_SIM_RUN_HH
