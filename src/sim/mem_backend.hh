/**
 * @file
 * Pluggable main-memory backend interface.
 *
 * The paper's evaluation answers "is STMS meta-data traffic
 * affordable?" against a single fixed-latency memory model (Table 1).
 * The backend interface turns that model into an axis: the same
 * priority-arbitrated request stream can be served by the original
 * fixed-latency controller, a multi-channel queued model, or a
 * bank/row-timing DRAM model, so experiments can report which
 * conclusions survive a change of memory technology.
 *
 * All backends share the request() contract of MemController: demand
 * requests (Priority::High) always win arbitration over prefetch and
 * meta-data traffic, completion callbacks fire exactly once, and
 * per-class byte accounting is identical across backends.
 */

#ifndef STMS_SIM_MEM_BACKEND_HH
#define STMS_SIM_MEM_BACKEND_HH

#include <array>
#include <memory>
#include <string>

#include "common/types.hh"
#include "sim/memctrl.hh"

namespace stms
{

/** Which memory model serves requests. */
enum class MemBackendKind : std::uint8_t
{
    Fixed,   ///< Original fixed-latency single channel (MemController).
    Queued,  ///< Per-channel queues, address-interleaved channels.
    Dram,    ///< Ranks x banks with row-buffer timing.
};

/** Human-readable backend name ("fixed", "queued", "dram"). */
const char *memBackendKindName(MemBackendKind kind);

/** Row-buffer page-management policy of the DRAM backend. */
enum class PagePolicy : std::uint8_t
{
    Open,    ///< Rows stay open after an access (locality pays off).
    Closed,  ///< Auto-precharge after every access.
};

/** Default DRAM backend timing, in core cycles at 4 GHz (Table 1's
 *  45 ns flat latency decomposes as tRP + tRCD + tCAS = 180 cycles,
 *  i.e. the fixed model charges every access the full row-conflict
 *  path; see docs/ARCHITECTURE.md for the worked timing example). */
inline constexpr Cycle kDramDefaultRcd = 60;
inline constexpr Cycle kDramDefaultCas = 60;
inline constexpr Cycle kDramDefaultRp = 60;
inline constexpr Cycle kDramDefaultRas = 160;
inline constexpr std::uint32_t kDramDefaultRowBytes = 8192;
inline constexpr std::uint32_t kDramDefaultRanks = 1;
inline constexpr std::uint32_t kDramDefaultBanksPerRank = 8;
/** Default channel count of the queued backend. */
inline constexpr std::uint32_t kQueuedDefaultChannels = 2;

/** Largest values parseMemBackendSpec() accepts. The count limits
 *  keep the backends' per-channel and per-bank tables small; the
 *  cycle limit (about 262 us at 4 GHz) keeps completion ticks far
 *  from overflowing. */
inline constexpr std::uint64_t kMaxMemChannels = 64;
/** Banks in the whole DRAM backend: channels x ranks x banks. */
inline constexpr std::uint64_t kMaxMemBanks = 4096;
inline constexpr std::uint64_t kMaxMemCycles = 1ULL << 20;
inline constexpr std::uint64_t kMaxRowBytes = 1ULL << 20;

/**
 * Parsed form of a --mem-backend NAME[,key=val...] specification.
 *
 * Zero-valued fields mean "inherit": timing fields inherit from
 * MemCtrlConfig, structure fields take the kind's default. The parser
 * normalizes explicit values equal to the effective default back to
 * zero, so canonical() is a true canonical form: two spellings of the
 * same configuration always produce the same "mem-backend" option,
 * and the all-default spec canonicalizes away entirely (isDefault()),
 * leaving the options exactly as without the flag.
 */
struct MemBackendSpec
{
    MemBackendKind kind = MemBackendKind::Fixed;
    /** Fixed/queued access latency override (0 = MemCtrlConfig). */
    Cycle accessLatency = 0;
    /** Per-block transfer/burst cycles override (0 = MemCtrlConfig). */
    Cycle transferCycles = 0;
    /** Channel count (0 = kind default: fixed 1, queued 2, dram 1). */
    std::uint32_t channels = 0;
    /** DRAM ranks per channel (0 = default 1). */
    std::uint32_t ranks = 0;
    /** DRAM banks per rank (0 = default 8). */
    std::uint32_t banksPerRank = 0;
    /** DRAM row-buffer size in bytes (0 = default 8192). */
    std::uint32_t rowBytes = 0;
    /** DRAM timing overrides (0 = kDramDefault*). */
    Cycle tRcd = 0;
    Cycle tCas = 0;
    Cycle tRp = 0;
    Cycle tRas = 0;
    /** DRAM page policy (open is the default and canonicalizes away). */
    PagePolicy policy = PagePolicy::Open;

    /** True for the default-constructed spec (plain fixed backend). */
    bool isDefault() const { return canonical() == "fixed"; }

    /**
     * Canonical spelling: kind name plus ",key=value" for every
     * non-inherited field, keys in a fixed order. This string is the
     * "mem-backend" experiment option the driver passes on.
     */
    std::string canonical() const;
};

/**
 * Parse "NAME[,key=val...]" into @p spec. Values are unsigned decimal
 * integers without a sign, capped at the kMaxMem* / kMaxRowBytes
 * limits above. On failure returns false and leaves a human-readable
 * message in @p error; @p spec is only modified on success.
 */
bool parseMemBackendSpec(const std::string &text, MemBackendSpec &spec,
                         std::string &error);

/** Per-class row-buffer outcome counters (DRAM backend only). */
struct RowBufferStats
{
    std::array<std::uint64_t, kNumTrafficClasses> hits{};
    std::array<std::uint64_t, kNumTrafficClasses> empties{};
    std::array<std::uint64_t, kNumTrafficClasses> conflicts{};

    std::uint64_t
    accessesFor(TrafficClass cls) const
    {
        const auto i = static_cast<std::size_t>(cls);
        return hits[i] + empties[i] + conflicts[i];
    }

    std::uint64_t totalAccesses() const;

    /** Row-hit fraction over demand reads + writebacks (0 if none). */
    double demandHitRate() const;
    /** Row-hit fraction over prefetch + meta-data classes. */
    double metaHitRate() const;
};

/**
 * Abstract memory backend: the timing model behind MemorySystem.
 *
 * request() carries the block-aligned physical address so backends
 * with internal structure (channels, banks, rows) can decode it;
 * the fixed-latency backend ignores it.
 */
class MemBackend
{
  public:
    using Callback = TimedCallback;

    virtual ~MemBackend() = default;

    /**
     * Issue a request of @p blocks cache blocks at @p addr.
     *
     * Contract shared by all backends: per-class accounting happens
     * unconditionally; in functional mode @p done fires immediately;
     * otherwise completions within one priority class targeting the
     * same address are FIFO, and High priority wins arbitration over
     * Low whenever both compete for the same resource.
     */
    virtual void request(TrafficClass cls, Priority prio, Addr addr,
                         std::uint32_t blocks, Callback done) = 0;

    virtual const MemCtrlStats &stats() const = 0;
    /** Zero all counters: stats, queue-delay histogram, row stats. */
    virtual void resetStats() = 0;

    /** Queue-delay distribution of low-priority traffic (cycles). */
    virtual const LinearHistogram &lowPrioDelay() const = 0;

    /** Fraction of elapsed x channels the data bus was busy. */
    virtual double utilization(Cycle elapsed) const = 0;

    /** Backend name for reports ("fixed", "queued", "dram"). */
    virtual const char *kindName() const = 0;

    /** Number of independent data channels. */
    virtual std::uint32_t channels() const = 0;

    /** Row-buffer outcome counters; all-zero for row-less backends. */
    virtual RowBufferStats rowStats() const { return {}; }

    /** Requests queued (not yet granted a channel) right now — a
     *  telemetry probe for the epoch sampler's queue-depth series. */
    virtual std::size_t pendingRequests() const { return 0; }

  protected:
    /** Shared per-request accounting (identical across backends). */
    static void account(MemCtrlStats &stats, TrafficClass cls,
                        Priority prio, std::uint32_t blocks);
};

/**
 * Fixed-latency backend: wraps the original MemController unchanged,
 * ignoring addresses. Bit-identical to the pre-backend simulator by
 * construction (the conformance and identity tests assert it).
 */
class FixedLatencyBackend final : public MemBackend
{
  public:
    FixedLatencyBackend(EventQueue &events, const MemCtrlConfig &config)
        : ctrl_(events, config)
    {
    }

    void
    request(TrafficClass cls, Priority prio, Addr, std::uint32_t blocks,
            Callback done) override
    {
        ctrl_.request(cls, prio, blocks, std::move(done));
    }

    const MemCtrlStats &stats() const override { return ctrl_.stats(); }
    void resetStats() override { ctrl_.resetStats(); }
    const LinearHistogram &
    lowPrioDelay() const override
    {
        return ctrl_.lowPrioDelay();
    }
    double
    utilization(Cycle elapsed) const override
    {
        return ctrl_.utilization(elapsed);
    }
    const char *kindName() const override { return "fixed"; }
    std::uint32_t channels() const override { return 1; }
    std::size_t
    pendingRequests() const override
    {
        return ctrl_.pendingRequests();
    }

  private:
    MemController ctrl_;
};

/**
 * Build the backend described by @p spec. Timing fields inherit from
 * @p config where the spec leaves them zero; MemCtrlConfig::functional
 * is honored by every backend (zero-latency completion, traffic still
 * counted), which is what keeps functional-mode experiments such as
 * fig7 byte-identical across backends.
 */
std::unique_ptr<MemBackend> makeMemBackend(EventQueue &events,
                                           const MemBackendSpec &spec,
                                           const MemCtrlConfig &config);

} // namespace stms

#endif // STMS_SIM_MEM_BACKEND_HH
