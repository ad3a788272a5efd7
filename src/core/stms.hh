/**
 * @file
 * Sampled Temporal Memory Streaming — the paper's contribution.
 *
 * STMS combines:
 *  - per-core history buffers logging the off-chip miss sequence
 *    (Sec. 4.2),
 *  - a shared, hash-based index table in main memory whose buckets are
 *    single 64-byte blocks (Sec. 4.3),
 *  - probabilistic sampling of index-table updates (Sec. 4.4),
 *  - per-core stream engines with FIFO address queues feeding a small
 *    prefetch buffer, following variable-length streams with
 *    end-of-stream annotations (Secs. 4.2, 4.5).
 *
 * Each core's engine maintains a small number of stream slots (as in
 * TSE [27], whose stream-following mechanisms STMS reuses): a lookup
 * hit latches a new stream into an idle or worst slot, so one noise
 * hit cannot evict a healthy stream, while re-latching after a stream
 * break stays cheap.
 *
 * Configured with ideal=true, the same machine models the idealized
 * prefetcher of Sec. 5.2: magic on-chip meta-data with zero lookup
 * latency, no meta-data traffic, unbounded tables, always-applied
 * updates. Every experiment in the evaluation compares points in this
 * configuration space.
 */

#ifndef STMS_CORE_STMS_HH
#define STMS_CORE_STMS_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/scan.hh"
#include "core/bucket_buffer.hh"
#include "core/history_buffer.hh"
#include "core/index_table.hh"
#include "core/sampler.hh"
#include "prefetch/prefetcher.hh"
#include "stats/histogram.hh"

namespace stms
{

/** Full STMS configuration. */
struct StmsConfig
{
    /**
     * Idealized on-chip meta-data (Sec. 5.2): zero-latency lookup, no
     * meta-data traffic. Data prefetches still move real blocks.
     */
    bool ideal = false;

    /** Index-update sampling probability (paper picks 1/8). */
    double samplingProbability = 0.125;

    /** History-buffer retention per core in entries; 0 = unbounded. */
    std::uint64_t historyEntriesPerCore = 1ULL << 20;

    /** Index-table main-memory footprint in bytes; 0 = unbounded. */
    std::uint64_t indexBytes = 16ULL << 20;

    /** {address, pointer} pairs per 64-byte bucket (Sec. 5.4). */
    std::uint32_t entriesPerBucket = 12;

    /** History entries packed per 64-byte block (Sec. 5.5). */
    std::uint32_t entriesPerHistoryBlock = 12;

    /** On-chip bucket buffer capacity in buckets (8KB / 64B). */
    std::uint32_t bucketBufferBuckets = 128;

    /** Stream slots per core engine (TSE-style parallel streams). */
    std::uint32_t streamsPerCore = 4;

    /** FIFO address-queue depth per stream (Sec. 4.2). */
    std::uint32_t addressQueueDepth = 32;

    /** Refill a stream's queue when it drains to this many entries. */
    std::uint32_t refillThreshold = 8;

    /** Consecutive unused prefetches that terminate a stream. */
    std::uint32_t killThreshold = 4;

    /**
     * Confidence ramp: a fresh stream may have only rampBase
     * outstanding-unconsumed prefetches; each confirmed consumption
     * widens the window by rampStep, up to addressQueueDepth. Limits
     * the damage of following a mispredicted (noise) stream.
     */
    std::uint32_t rampBase = 4;
    std::uint32_t rampStep = 2;

    /**
     * Maximum entries followed per lookup; 0 = unbounded. Nonzero
     * models single-table fixed prefetch depth (Fig. 6 right).
     */
    std::uint64_t maxStreamDepth = 0;

    /** Write/honor end-of-stream annotations (Sec. 4.5). */
    bool useEndMarks = true;

    /**
     * Index lookups a core may have in flight concurrently. Bucket
     * reads are independent memory accesses, so the engine pipelines
     * them; one-at-a-time lookup loses the misses that arrive during
     * the two round trips (Sec. 5.4 quantifies that loss via MLP).
     */
    std::uint32_t maxLookupsInFlight = 4;

    /**
     * A stream with no consumption or issue progress within this many
     * of the core's misses is considered dead and replaceable.
     */
    std::uint32_t staleWindow = 48;

    /** Ablation: all cores share one history buffer (Sec. 4.2 warns
     *  interleaving obscures repetition). */
    bool sharedHistory = false;

    std::uint64_t seed = 1905;
};

/** STMS-internal statistics. */
struct StmsStats
{
    std::uint64_t logged = 0;             ///< History appends.
    std::uint64_t historyBlockWrites = 0; ///< Packed record writes.
    std::uint64_t lookups = 0;
    std::uint64_t lookupHits = 0;         ///< Pointer found.
    std::uint64_t stalePointers = 0;      ///< Pointer aged out of HB.
    std::uint64_t lookupsSuppressed = 0;  ///< Lookup pipe full.
    std::uint64_t lookupsIgnored = 0;     ///< All slots healthy.
    std::uint64_t streamsStarted = 0;
    std::uint64_t streamsEnded = 0;
    std::uint64_t streamsReplaced = 0;
    std::uint64_t endMarksWritten = 0;
    std::uint64_t pauses = 0;
    std::uint64_t resumes = 0;
    std::uint64_t skipAheads = 0;
    std::uint64_t followed = 0;           ///< Entries streamed.
    std::uint64_t consumed = 0;           ///< Prefetches consumed.
    /** Pump-stall accounting (why the engine stopped issuing). */
    std::uint64_t pumpBreakRoom = 0;      ///< Port in-flight cap.
    std::uint64_t pumpBreakWindow = 0;    ///< Confidence window.
    std::uint64_t pumpBreakOutstanding = 0; ///< Core-wide cap.
    std::uint64_t pumpBreakPause = 0;     ///< End-mark pause.
    std::uint64_t queueDry = 0;           ///< Queue empty at pump end.
    /** Stream length distribution weighted by consumed blocks
     *  (Fig. 6 left). */
    Log2Histogram streamLengths{24};
};

/** The STMS prefetcher. */
class StmsPrefetcher : public Prefetcher
{
  public:
    explicit StmsPrefetcher(const StmsConfig &config = {});

    const std::string &name() const override { return name_; }
    void attach(PrefetchPort &port, std::uint32_t num_cores,
                std::uint32_t id) override;

    void onOffchipRead(CoreId core, Addr block) override;
    void onPrefetchUsed(CoreId core, Addr block, bool partial) override;
    void onPrefetchUnused(CoreId core, Addr block) override;
    void onForeignCovered(CoreId core, Addr block) override;

    /** Chunk-dispatch hint: warm the index buckets the upcoming
     *  accesses would probe (IndexTable::prefetchBatch).
     *  Host-side only; never touches model state or stats. */
    void onAccessHint(CoreId core,
                      std::span<const Addr> addrs) override;

    void resetStats() override;

    const StmsStats &stats() const { return stats_; }
    const StmsConfig &config() const { return config_; }
    const IndexTable &indexTable() const { return index_; }
    IndexTable &indexTable() { return index_; }
    const HistoryBuffer &historyBuffer(CoreId core) const;
    /** Mutable history access (tests/tools, e.g. planting end marks). */
    HistoryBuffer &historyBufferMutable(CoreId core)
    {
        return *history_[config_.sharedHistory ? 0 : core];
    }
    const UpdateSampler &sampler() const { return sampler_; }
    const BucketBuffer &bucketBuffer() const { return bucketBuffer_; }

    /** Meta-data main-memory footprint (history + index). */
    std::uint64_t metaFootprintBytes() const;

  private:
    /** One fetched-but-not-yet-prefetched queue slot. */
    struct QueuedEntry
    {
        SeqNum seq;
        Addr block;
        bool endMark;
    };

    /**
     * Flat {block -> seq} set of a stream's issued-unconsumed
     * prefetches. Bounded by the confidence window (at most
     * addressQueueDepth entries), probed on every prefetch-buffer hit
     * and eviction — a linear sweep over a few cache lines where
     * the hash map chased a heap node per probe. Keys are unique and
     * nothing observes iteration order, so swap-removal (including
     * the bulk retire sweep) cannot perturb model results.
     */
    class IssuedSet
    {
      public:
        std::uint64_t size() const { return count_; }
        bool empty() const { return count_ == 0; }

        /** Seq slot of @p block, or nullptr. */
        SeqNum *
        find(Addr block)
        {
            const std::size_t slot =
                findFirstEqual(blocks_.data(), count_, block);
            return slot == kNpos ? nullptr : &seqs_[slot];
        }

        /** Map-style upsert of {block, seq}. */
        void
        insert(Addr block, SeqNum seq)
        {
            if (SeqNum *existing = find(block)) {
                *existing = seq;
                return;
            }
            if (count_ == slots_)
                grow();
            blocks_[count_] = block;
            seqs_[count_] = seq;
            ++count_;
        }

        /** Remove the entry whose seq slot find() returned. */
        void
        erase(SeqNum *seq)
        {
            const std::size_t slot =
                static_cast<std::size_t>(seq - seqs_.data());
            --count_;
            blocks_[slot] = blocks_[count_];
            seqs_[slot] = seqs_[count_];
        }

        /** Drop every entry with seq < limit (retire sweep). */
        void
        retireBelow(SeqNum limit)
        {
            for (std::size_t slot = 0; slot < count_;) {
                if (seqs_[slot] < limit) {
                    --count_;
                    blocks_[slot] = blocks_[count_];
                    seqs_[slot] = seqs_[count_];
                } else {
                    ++slot;
                }
            }
        }

      private:
        void
        grow()
        {
            const std::size_t grown = slots_ == 0 ? 8 : slots_ * 2;
            ArenaBuffer<Addr> blocks(grown);
            ArenaBuffer<SeqNum> seqs(grown);
            for (std::size_t slot = 0; slot < count_; ++slot) {
                blocks[slot] = blocks_[slot];
                seqs[slot] = seqs_[slot];
            }
            blocks_ = std::move(blocks);
            seqs_ = std::move(seqs);
            slots_ = grown;
        }

        ArenaBuffer<Addr> blocks_;
        ArenaBuffer<SeqNum> seqs_;
        std::size_t slots_ = 0;
        std::size_t count_ = 0;
    };

    /** One stream slot of a core engine (Fig. 2 "stream engine"). */
    struct Stream
    {
        bool active = false;
        CoreId hbOwner = 0;
        SeqNum nextFetchSeq = 0;
        std::deque<QueuedEntry> queue;
        IssuedSet issued;
        SeqNum lastConsumed = kInvalidSeq;
        Addr pausedAt = kInvalidAddr;
        std::uint32_t unusedStreak = 0;
        bool fetchInFlight = false;
        std::uint64_t followed = 0;
        std::uint64_t consumed = 0;
        /** missClock_ value at the last consumption or issue. */
        std::uint64_t lastActivity = 0;
        /** Generation guard for in-flight fetch callbacks. */
        std::uint64_t generation = 0;
    };

    HistoryBuffer &historyOf(CoreId owner);
    CoreId historyOwner(CoreId core) const;
    Stream &slot(CoreId core, std::uint32_t index);

    void logMiss(CoreId core, Addr block);
    void applyIndexUpdate(Addr block, HistoryPointer pointer);
    void startLookup(CoreId core, Addr block);
    void startStream(CoreId core, HistoryPointer pointer);
    void fetchMore(CoreId core, std::uint32_t slot_index);
    void fillQueue(CoreId core, std::uint32_t slot_index);
    void pump(CoreId core, std::uint32_t slot_index);
    void endStream(CoreId core, std::uint32_t slot_index,
                   bool write_end_mark);

    /** True if the stream has made progress recently. */
    bool isHealthy(const Stream &stream) const;

    /** Drop issued entries the demand stream has moved past. */
    static void retirePassed(IssuedSet &issued, SeqNum upto);

    /** Total issued-unconsumed blocks across a core's slots. */
    std::uint64_t issuedOutstanding(CoreId core) const;

    StmsConfig config_;
    std::string name_ = "stms";
    IndexTable index_;
    BucketBuffer bucketBuffer_;
    UpdateSampler sampler_;
    std::vector<std::unique_ptr<HistoryBuffer>> history_;
    /** streams_[core][slot]. */
    std::vector<std::vector<Stream>> streams_;
    std::vector<std::uint32_t> lookupsInFlight_;
    /** Queue-fill scratch for HistoryBuffer::readWindow (one packed
     *  history block per fetch; fillQueue is never reentered). */
    ArenaBuffer<Addr> fetchBlocks_;
    ArenaBuffer<std::uint8_t> fetchMarks_;
    /** Lifetime miss count (never reset; staleness clock). */
    std::uint64_t missClock_ = 0;
    StmsStats stats_;
};

/** Convenience: the idealized-TMS configuration of Sec. 5.2. */
StmsConfig makeIdealTmsConfig();

} // namespace stms

#endif // STMS_CORE_STMS_HH
