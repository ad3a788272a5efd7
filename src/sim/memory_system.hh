/**
 * @file
 * The CMP memory hierarchy: per-core L1s and prefetch buffers, a shared
 * L2, MSHRs, and the memory controller (Fig. 2 of the paper, minus the
 * predictor, which plugs in through the Prefetcher interface).
 *
 * This is the substrate substituting for FLEXUS: it reproduces the
 * paper's Table 1 memory system (64KB 2-way L1s, 8MB 16-way shared L2,
 * 45ns / 28.4GB/s memory) for a trace-driven core model.
 */

#ifndef STMS_SIM_MEMORY_SYSTEM_HH
#define STMS_SIM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/addr_map.hh"
#include "common/types.hh"
#include "prefetch/prefetch_buffer.hh"
#include "prefetch/prefetcher.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/mem_backend.hh"

namespace stms
{

/** How a core access was satisfied. */
enum class AccessOutcome : std::uint8_t
{
    L1Hit,        ///< Hit in the private L1.
    PrefetchHit,  ///< Satisfied from a prefetch buffer (fully covered).
    L2Hit,        ///< Hit in the shared L2.
    MemPartial,   ///< Merged with an in-flight prefetch (partially covered).
    Mem,          ///< Off-chip demand read (uncovered miss).
};

/** Memory hierarchy configuration (defaults copy Table 1). */
struct MemorySystemConfig
{
    std::uint32_t numCores = 4;
    CacheConfig l1{"l1", 64 * 1024, 2};
    CacheConfig l2{"l2", 8 * 1024 * 1024, 16};
    Cycle l1Latency = 2;
    Cycle prefetchBufLatency = 4;
    Cycle l2Latency = 20;
    std::uint32_t prefetchBufferBlocks = 32;  ///< 2KB per core.
    std::uint32_t maxPrefetchInflight = 16;   ///< Per core per prefetcher.
    /**
     * Ablation knob: issue predictor meta-data traffic at demand
     * priority instead of low priority. The paper finds low priority
     * "essential to minimize queueing-related stalls" (Sec. 4.3).
     */
    bool metaHighPriority = false;
    MemCtrlConfig mem;
    /** Which timing model serves memory requests (default: fixed). */
    MemBackendSpec backend;
    /**
     * When set, the --mem-backend driver knob leaves this system's
     * backend alone. Experiments that sweep backends explicitly
     * (mem_tech_sweep) pin each run's backend so a global override
     * cannot silently collapse the sweep onto one model.
     */
    bool backendPinned = false;
};

/** Demand/coverage statistics, system-wide and per core. */
struct MemorySystemStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t prefetchHits = 0;   ///< Fully covered misses.
    std::uint64_t l2Hits = 0;
    std::uint64_t partialMisses = 0;  ///< Partially covered misses.
    std::uint64_t offchipReads = 0;   ///< Uncovered demand reads.
    std::uint64_t offchipWrites = 0;  ///< Write-allocate fills.

    /** All L2 read misses: covered + partial + uncovered. */
    std::uint64_t
    totalOffchipDemand() const
    {
        return prefetchHits + partialMisses + offchipReads;
    }

    /** Fraction of off-chip misses fully or partially covered. */
    double
    coverage() const
    {
        const std::uint64_t total = totalOffchipDemand();
        return total == 0 ? 0.0
                          : static_cast<double>(prefetchHits + partialMisses) /
                            static_cast<double>(total);
    }

    double
    fullCoverage() const
    {
        const std::uint64_t total = totalOffchipDemand();
        return total == 0 ? 0.0
                          : static_cast<double>(prefetchHits) /
                            static_cast<double>(total);
    }
};

/**
 * Epoch-sampling hook on the access stream (telemetry's
 * `--sample-every`). Mirrors the prefetcher's IssueBarrier trick:
 * the threshold parks at kNever when sampling is off, so the hot
 * path pays exactly one never-taken compare per access — the
 * zero-cost-when-disabled contract tools/bench_report.py's telemetry
 * overhead gate checks.
 */
struct SampleHook
{
    static constexpr std::uint64_t kNever = ~0ULL;
    std::uint64_t nextAt = kNever;  ///< Access count that fires next.
    std::uint64_t every = 0;        ///< Epoch length (0 = disabled).
    void (*fire)(void *context) = nullptr;
    void *context = nullptr;
};

/** Time-weighted MLP meter for one core's off-chip reads (Table 2). */
class MlpMeter
{
  public:
    void start(Cycle now);
    void finish(Cycle now);
    double mlp() const;
    std::uint32_t outstanding() const { return outstanding_; }
    /** Zero accumulated area/busy time; keeps in-flight count. */
    void reset(Cycle now);

  private:
    void accumulate(Cycle now);

    std::uint32_t outstanding_ = 0;
    Cycle lastChange_ = 0;
    double area_ = 0.0;
    Cycle busy_ = 0;
};

/**
 * The memory hierarchy.
 *
 * Cores call demandAccess(); prefetchers are registered once and driven
 * through their hooks. All state mutation happens at EventQueue time.
 */
class MemorySystem : public PrefetchPort
{
  public:
    using AccessCallback = std::function<void(Cycle done, AccessOutcome)>;

    MemorySystem(EventQueue &events, const MemorySystemConfig &config);

    /** Register a prefetcher (non-owning). Order = probe order. */
    void addPrefetcher(Prefetcher *prefetcher);

    /**
     * Fast-path L1 probe, callable ahead of global time because L1s
     * are core-private. Counts the access and the L1 hit/miss.
     * @return true on an L1 hit (the access is complete).
     */
    bool tryL1(CoreId core, Addr addr, bool is_write);

    /**
     * The post-L1-miss demand path, which must run at event time
     * because it touches shared structures. @p done may be invoked
     * inline (L2/prefetch-buffer hits) or later (off-chip misses).
     * Pass a null callback for stores (the core does not wait).
     */
    void demandAccess(CoreId core, Addr addr, bool is_write,
                      AccessCallback done);

    // PrefetchPort interface.
    IssueResult issuePrefetch(Prefetcher &owner, CoreId core,
                              Addr block) override;
    void metaRequest(TrafficClass cls, Addr addr, std::uint32_t blocks,
                     TimedCallback done) override;
    Cycle now() const override { return events_.now(); }
    std::uint32_t prefetchRoom(const Prefetcher &owner,
                               CoreId core) const override;

    const MemorySystemStats &stats() const { return stats_; }
    const PrefetcherStats &prefetcherStats(std::uint32_t id) const;
    const MemCtrlStats &memStats() const { return mem_->stats(); }
    const MemBackend &memBackend() const { return *mem_; }
    const Cache &l2() const { return l2_; }
    const Cache &l1(CoreId core) const { return *l1s_[core]; }
    double mlp(CoreId core) const { return mlpMeters_[core].mlp(); }

    /** Aggregate MLP across cores (simple mean of per-core MLP). */
    double meanMlp() const;

    std::uint32_t numCores() const { return config_.numCores; }
    Cycle l1Latency() const { return config_.l1Latency; }

    /**
     * Forward a chunk-dispatch access hint to every prefetcher (see
     * Prefetcher::onAccessHint). Host-side only: no simulated state
     * or time is touched.
     */
    void
    hintUpcoming(CoreId core, std::span<const Addr> addrs)
    {
        for (Prefetcher *prefetcher : prefetchers_)
            prefetcher->onAccessHint(core, addrs);
    }

    /**
     * Arm the epoch sampler: fire(context) after every @p every
     * counted accesses (resetStats() re-bases the threshold so
     * epochs restart at the measurement window). @p every == 0
     * disarms.
     */
    void setSampleHook(std::uint64_t every, void (*fire)(void *),
                       void *context);

    /** Demand/prefetch MSHRs currently in flight (telemetry probe). */
    std::size_t mshrOccupancy() const { return mshrs_.size(); }

    /** Zero all statistics (warmup barrier). */
    void resetStats();

  private:
    struct Mshr
    {
        bool prefetch = false;
        Prefetcher *owner = nullptr;     ///< For prefetch-initiated MSHRs.
        CoreId core = 0;                 ///< Issuer.
        bool demandWaiting = false;      ///< A demand merged in.
        bool write = false;
        /**
         * Waiters in arrival order. The overwhelmingly common case is
         * a single demand waiter, stored inline so registering an MSHR
         * does not allocate; merges spill into the vector.
         */
        bool hasFirstWaiter = false;
        CoreId firstCore = 0;
        AccessCallback firstDone;
        std::vector<std::pair<CoreId, AccessCallback>> moreWaiters;

        void
        addWaiter(CoreId waiter, AccessCallback done)
        {
            if (!hasFirstWaiter) {
                hasFirstWaiter = true;
                firstCore = waiter;
                firstDone = std::move(done);
            } else {
                moreWaiters.emplace_back(waiter, std::move(done));
            }
        }

        /** Visit waiters in arrival order. */
        template <typename Fn>
        void
        forEachWaiter(Fn &&fn)
        {
            if (hasFirstWaiter)
                fn(firstCore, firstDone);
            for (auto &[waiter, done] : moreWaiters)
                fn(waiter, done);
        }
    };

    void handleMiss(CoreId core, Addr block, bool is_write,
                    AccessCallback done);
    void finishDemandFill(Addr block, Mshr &&mshr, Cycle done_tick);
    void finishPrefetchFill(Addr block, Mshr &&mshr, Cycle done_tick);
    void installDemand(CoreId core, Addr block, bool is_write);
    void handleL2Eviction(const Eviction &evicted);
    PrefetchBuffer &buffer(std::uint32_t pf_id, CoreId core);
    const PrefetchBuffer &buffer(std::uint32_t pf_id, CoreId core) const;

    EventQueue &events_;
    MemorySystemConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    Cache l2_;
    std::unique_ptr<MemBackend> mem_;
    std::vector<Prefetcher *> prefetchers_;
    /** buffers_[pf][core]. */
    std::vector<std::vector<PrefetchBuffer>> buffers_;
    std::vector<std::vector<std::uint32_t>> inflightPrefetches_;
    /** In-flight fills, keyed by block. A flat scanned table: the
     *  file is small (demand window + prefetch caps) but probed per
     *  demand access and prefetch issue (common/addr_map.hh). */
    FlatAddrMap<Mshr> mshrs_;
    std::vector<PrefetcherStats> pfStats_;
    std::vector<MlpMeter> mlpMeters_;
    MemorySystemStats stats_;
    SampleHook sampleHook_;
};

} // namespace stms

#endif // STMS_SIM_MEMORY_SYSTEM_HH
