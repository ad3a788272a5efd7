/**
 * @file
 * Main-memory backends: the timing model behind MemorySystem.
 *
 * The paper evaluates STMS against one memory model (Table 1): 45 ns
 * access latency and 28.4 GB/s peak bandwidth in 64-byte transfers on
 * a single shared data channel, where demand requests always win
 * arbitration over prefetch and predictor meta-data traffic, which
 * the paper finds "essential to minimize queueing-related stalls"
 * (Sec. 4.3). The backend interface turns that model into an axis:
 * the same priority-arbitrated request stream can be served by that
 * channel (`fixed`), by N address-interleaved copies of it (`queued`),
 * or by a bank/row-timing DRAM model (`dram`), so experiments can
 * report which conclusions survive a change of memory technology.
 *
 * MemBackend::request() states the contract every backend shares and
 * owns the parts that are the same for all of them: per-class
 * accounting, which feeds the traffic-overhead figures (Figs. 1, 7,
 * 8), and the functional mode's inline completion.
 */

#ifndef STMS_SIM_MEM_BACKEND_HH
#define STMS_SIM_MEM_BACKEND_HH

#include <array>
#include <memory>
#include <string>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace stms
{

/** Memory timing and arbitration configuration. */
struct MemCtrlConfig
{
    /** DRAM access latency in cycles (45 ns at 4 GHz). */
    Cycle accessLatency = 180;
    /** Channel occupancy per 64-byte transfer (28.4 GB/s at 4 GHz). */
    Cycle transferCycles = 9;
    /**
     * Functional mode: callbacks fire with zero latency and no
     * bandwidth contention, but traffic is still counted. Used for
     * trace-based coverage sweeps (the paper's own methodology mixes
     * trace-based and cycle-accurate runs, Sec. 5.1).
     */
    bool functional = false;
};

/** Per-class traffic and queueing statistics. */
struct MemCtrlStats
{
    std::array<std::uint64_t, kNumTrafficClasses> requests{};
    std::array<std::uint64_t, kNumTrafficClasses> bytes{};
    std::uint64_t highPrioRequests = 0;
    std::uint64_t lowPrioRequests = 0;
    /** Total cycles the channel was occupied transferring data. */
    Cycle busyCycles = 0;

    std::uint64_t
    bytesFor(TrafficClass cls) const
    {
        return bytes[static_cast<std::size_t>(cls)];
    }

    /** Total bytes across all classes. */
    std::uint64_t totalBytes() const;

    /** Bytes of everything except demand reads and writebacks. */
    std::uint64_t overheadBytes() const;
};

/** Which memory model serves requests. */
enum class MemBackendKind : std::uint8_t
{
    Fixed,   ///< Table 1's channel: the queued model at one channel.
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
 * Abstract memory backend. request() carries the block-aligned
 * physical address so backends with internal structure (channels,
 * banks, rows) can decode it. A backend implements only enqueue() and
 * pendingRequests(); everything else is the same for all of them and
 * lives here.
 */
class MemBackend
{
  public:
    using Callback = TimedCallback;

    virtual ~MemBackend() = default;
    /** Scheduled events hold the backend's address. */
    MemBackend(const MemBackend &) = delete;
    MemBackend &operator=(const MemBackend &) = delete;

    /**
     * Issue a request of @p blocks cache blocks at @p addr.
     *
     * Contract shared by all backends: per-class accounting happens
     * unconditionally; in functional mode @p done fires immediately;
     * otherwise completions within one priority class targeting the
     * same address are FIFO, and High priority wins arbitration over
     * Low whenever both compete for the same resource. @p done fires
     * exactly once, with the tick its data is available (reads) or the
     * write has drained; it may be null for fire-and-forget writes.
     */
    void request(TrafficClass cls, Priority prio, Addr addr,
                 std::uint32_t blocks, Callback done);

    const MemCtrlStats &stats() const { return stats_; }

    /** Zero all counters: traffic stats and row stats. */
    void
    resetStats()
    {
        stats_ = MemCtrlStats{};
        row_ = RowBufferStats{};
    }

    /** Row-buffer outcome counters; all-zero for row-less backends. */
    const RowBufferStats &rowStats() const { return row_; }

    /** Number of independent data channels. */
    std::uint32_t channels() const { return numChannels_; }

    /** Fraction of elapsed x channels the data buses were busy. */
    double utilization(Cycle elapsed) const;

    /** Requests queued (not yet granted a channel) right now — a
     *  telemetry probe for the epoch sampler's queue-depth series. */
    virtual std::size_t pendingRequests() const = 0;

  protected:
    MemBackend(EventQueue &events, const MemCtrlConfig &config,
               std::uint32_t channels);

    /** Queue a timing-mode request; request() has accounted it. */
    virtual void enqueue(TrafficClass cls, Priority prio, Addr addr,
                         std::uint32_t blocks, Callback done) = 0;

    EventQueue &events_;
    MemCtrlStats stats_;
    RowBufferStats row_;

  private:
    std::uint32_t numChannels_;
    bool functional_;
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
