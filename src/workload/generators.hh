/**
 * @file
 * Synthetic workload generator.
 *
 * Substitutes for the paper's proprietary commercial and scientific
 * traces (Table 1) by reproducing their published memory-access
 * statistics: the temporal-stream length distribution and recurrence
 * skew, the reuse-distance spectrum (Fig. 5), the fraction of
 * on-chip-hitting work (which bounds speedup, Sec. 5.2), the scan
 * component stride prefetchers absorb, and the dependence structure
 * that sets each workload's MLP (Table 2).
 *
 * Each record is drawn from a four-way access mix:
 *  - stream:  the next element of the core's current temporal stream,
 *             chosen Zipf-style from a per-core library (or played
 *             once and discarded in DSS visit-once mode);
 *  - noise:   a random cold block (non-repetitive working set);
 *  - hot:     a block from a small hot set that hits on chip;
 *  - scan:    the next sequential block (stride-prefetchable).
 */

#ifndef STMS_WORKLOAD_GENERATORS_HH
#define STMS_WORKLOAD_GENERATORS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workload/stream_library.hh"
#include "workload/trace.hh"

namespace stms
{

/** Full parameterization of one synthetic workload. */
struct WorkloadSpec
{
    std::string name = "synthetic";
    std::uint32_t numCores = 4;
    std::uint64_t recordsPerCore = 512 * 1024;
    std::uint64_t seed = 1;

    // Temporal-stream structure (per-core, lazily created).
    std::uint32_t minStreamLen = 2;
    std::uint32_t maxStreamLen = 512;
    double lengthLogMean = 2.2;
    double lengthLogSigma = 1.1;
    /**
     * Mean playbacks per stream (geometric). Steady-state coverage is
     * bounded by (meanVisits-1)/meanVisits: first visits are cold.
     */
    double meanVisits = 6.0;
    /**
     * Reuse distances (in records) between a stream's recurrences are
     * log-uniform in [minReuseRecords, maxReuseRecords]. This spectrum
     * is what produces the smooth coverage-vs-history-size growth of
     * the paper's commercial workloads (Fig. 5 left); distances below
     * the L2 reach get filtered on chip, exactly as in real systems.
     * maxReuseRecords is clamped to half the trace length.
     */
    std::uint64_t minReuseRecords = 48 * 1024;
    std::uint64_t maxReuseRecords = 1280 * 1024;
    /**
     * Fraction of new streams that never recur (data visited once,
     * the DSS pattern of Sec. 5.2). 1 = nothing ever recurs.
     */
    double onceFraction = 0.0;
    /**
     * Scientific mode: one fixed-length stream (the computational
     * iteration) replayed back-to-back for the whole trace; length is
     * minStreamLen (== maxStreamLen). Sec. 5.4 gives the paper's
     * per-iteration lengths.
     */
    bool loopSingleStream = false;

    // Access mix (fractions of records; remainder goes to streams).
    double noiseFraction = 0.25;
    double hotFraction = 0.30;
    double scanFraction = 0.00;
    /** Distinct blocks in the cold noise region. */
    std::uint64_t noiseBlocks = 1ULL << 22;
    /** Distinct blocks in the hot (on-chip) region per core. */
    std::uint64_t hotBlocks = 2048;
    double writeFraction = 0.05;

    // Timing and MLP shaping.
    /** Probability a record depends on its predecessor's data. */
    double dependentProb = 0.6;
    std::uint32_t thinkMin = 20;
    std::uint32_t thinkMax = 120;
    /**
     * Miss burstiness: a stream access may be followed by up to this
     * many further stream accesses emitted back-to-back (tiny think,
     * independent), letting misses overlap in the core's window. This
     * is the main MLP lever (Table 2) beyond dependence flags.
     */
    std::uint32_t missBurstMax = 0;
};

/**
 * Resumable single-lane generator.
 *
 * Emits exactly the record sequence WorkloadGenerator::generate()
 * produces for one core, but in caller-sized slices, so a consumer
 * can take bounded chunks instead of materializing whole lanes.
 * The RNG-driven state machine (stream library, recurrence heap,
 * burst position) is suspended between fill() calls; slicing at any
 * boundary — including mid-burst — yields the same bytes as one
 * whole-lane fill. generateCore() delegates here, so the two paths
 * cannot drift.
 */
class LaneGenerator
{
  public:
    LaneGenerator(const WorkloadSpec &spec, CoreId core);
    ~LaneGenerator();
    LaneGenerator(LaneGenerator &&) noexcept;
    LaneGenerator &operator=(LaneGenerator &&) noexcept;

    /**
     * Append up to @p max_records further lane records to @p out.
     * @return the number appended; 0 once the lane is exhausted.
     */
    std::size_t fill(std::vector<TraceRecord> &out,
                     std::size_t max_records);

    /** All recordsPerCore records have been emitted. */
    bool done() const;

    /** Records emitted so far. */
    std::uint64_t emitted() const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** Deterministic trace synthesis from a WorkloadSpec. */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(const WorkloadSpec &spec);

    /** Generate the full multi-core trace (same spec => same trace). */
    Trace generate() const;

    const WorkloadSpec &spec() const { return spec_; }

  private:
    void generateCore(CoreId core,
                      std::vector<TraceRecord> &records) const;

    WorkloadSpec spec_;
};

} // namespace stms

#endif // STMS_WORKLOAD_GENERATORS_HH
