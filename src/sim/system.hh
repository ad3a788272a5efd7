/**
 * @file
 * Top-level CMP simulation harness.
 *
 * Builds the event queue, memory hierarchy, and one trace-driven core
 * per trace lane; runs to completion with an optional warmup barrier
 * (the paper launches measurement from warmed checkpoints, Sec. 5.1);
 * and aggregates the metrics every experiment consumes: coverage,
 * traffic by class, aggregate user-IPC, and MLP.
 */

#ifndef STMS_SIM_SYSTEM_HH
#define STMS_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "sim/memory_system.hh"
#include "telemetry/sampler.hh"
#include "trace_io/trace_source.hh"
#include "workload/trace.hh"

namespace stms
{

/** Whole-system configuration. */
struct SimConfig
{
    MemorySystemConfig memory;
    CoreConfig core;
    /**
     * Total records (across cores) to issue before statistics reset.
     * Stands in for the paper's warmed-checkpoint methodology.
     */
    std::uint64_t warmupRecords = 0;
    /** Safety limit on simulated cycles; 0 = unlimited. */
    Cycle maxCycles = 0;
    /**
     * Telemetry: snapshot the counter registry every N counted
     * accesses into SimResult::samples (0 = off). Pure observation —
     * probes only read counters — so it can never perturb model
     * output; it rides the runner chokepoint, not Options, so it
     * never reaches an experiment's options either.
     */
    std::uint64_t sampleEvery = 0;
};

/** Everything a bench needs from one simulation run. */
struct SimResult
{
    Cycle cycles = 0;                 ///< Measured-window cycles.
    std::uint64_t instructions = 0;   ///< Committed in the window.
    double ipc = 0.0;                 ///< Aggregate user IPC (Sec. 5.1).
    MemorySystemStats mem;
    MemCtrlStats traffic;
    std::vector<double> mlpPerCore;
    double meanMlp = 0.0;
    std::vector<PrefetcherStats> prefetchers;
    double memUtilization = 0.0;
    /** Row-buffer outcomes (all zero outside the DRAM backend). */
    RowBufferStats rowBuffer;
    /** Memory channels of the backend that produced this result. */
    std::uint32_t memChannels = 1;

    double coverage = 0.0;       ///< Full + partial covered fraction.
    double fullCoverage = 0.0;   ///< Fully covered fraction only.
    /** Overhead bytes per useful (demand + writeback) data byte. */
    double overheadPerDataByte = 0.0;

    /** Epoch-sampled counter series (empty unless sampleEvery > 0).
     *  Telemetry only: excluded from the run codec (and so from the
     *  model digests) and from the report's metrics. */
    telemetry::SampleSeries samples;
};

/** A complete simulated CMP bound to one trace source. */
class CmpSystem
{
  public:
    /**
     * Bind the system to @p source (one lane per core), which the
     * caller keeps alive for the system's lifetime. Each lane is
     * opened exactly once, so a streaming source's bounded-memory
     * guarantee (one chunk per lane) holds for the whole run.
     */
    CmpSystem(const SimConfig &config, trace_io::TraceSource &source);

    /** Convenience: bind to an in-memory trace (no copies made). */
    CmpSystem(const SimConfig &config, const Trace &trace);

    /** Register a prefetcher (non-owning; caller keeps it alive). */
    void addPrefetcher(Prefetcher *prefetcher);

    /** Run the whole trace; returns aggregated results. */
    SimResult run();

    MemorySystem &memory() { return *memory_; }
    EventQueue &events() { return events_; }
    const TraceCore &core(CoreId id) const { return *cores_[id]; }

  private:
    void build(trace_io::TraceSource &source);
    void warmupReached();
    void registerSampleCounters();
    void takeSample();

    SimConfig config_;
    /** Owns the source only for the Trace-convenience constructor. */
    std::unique_ptr<trace_io::TraceSource> ownedSource_;
    EventQueue events_;
    std::unique_ptr<MemorySystem> memory_;
    std::vector<std::unique_ptr<trace_io::RecordCursor>> cursors_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
    std::uint32_t numPrefetchers_ = 0;

    telemetry::EpochSampler sampler_;
    IssueBarrier barrier_;
    bool warmupDone_ = false;
    Cycle measureStart_ = 0;
    std::vector<std::uint64_t> instrSnapshot_;
};

} // namespace stms

#endif // STMS_SIM_SYSTEM_HH
