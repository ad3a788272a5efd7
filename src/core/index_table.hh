/**
 * @file
 * Hash-based index table (Sec. 4.3).
 *
 * The shared index table maps a physical block address to a pointer
 * into some core's history buffer. It is a bucketized probabilistic
 * hash table in main memory: each bucket is exactly one 64-byte memory
 * block holding up to twelve {address, pointer} pairs maintained in
 * LRU order, so a lookup or update touches exactly one memory block.
 * The LRU policy inside each bucket naturally ages out useless entries
 * (Sec. 5.3).
 *
 * An unbounded mode (hash map) models the idealized prefetcher's
 * magic on-chip meta-data, and a bounded-entry mode supports the
 * coverage-vs-entries sweep of Fig. 1 (left).
 *
 * Both modes key entries by *block number* (the address without its
 * in-block offset bits): two byte addresses inside the same cache
 * block are the same miss stream and must alias identically whether
 * the table is bounded or not.
 *
 * Each StmsPrefetcher owns one table and drives it from the thread
 * simulating its run, so the table takes no locks.
 */

#ifndef STMS_CORE_INDEX_TABLE_HH
#define STMS_CORE_INDEX_TABLE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "common/zeroed_buffer.hh"
#include "core/index_bucket.hh"

namespace stms
{

/** A history-buffer pointer tagged with its owning core. */
struct HistoryPointer
{
    /** Bits of the packed word carrying the sequence number; the
     *  owning core occupies the bits above. */
    static constexpr std::uint32_t kSeqBits = 48;
    static constexpr std::uint64_t kSeqMask = (1ULL << kSeqBits) - 1;

    CoreId core = 0;
    SeqNum seq = 0;

    std::uint64_t
    packed() const
    {
        // An unmasked seq >= 2^48 would silently corrupt the core
        // field; the mask keeps the fields disjoint and the asserts
        // catch the overflow where it happens.
        stms_assert(seq <= kSeqMask,
                    "history seq 0x%llx overflows the %u-bit packed "
                    "field",
                    static_cast<unsigned long long>(seq), kSeqBits);
        stms_assert(core <= (std::uint64_t{1} << (64 - kSeqBits)) - 1,
                    "core %u overflows the packed pointer tag", core);
        return (static_cast<std::uint64_t>(core) << kSeqBits) |
               (seq & kSeqMask);
    }

    static HistoryPointer
    unpack(std::uint64_t value)
    {
        return HistoryPointer{static_cast<CoreId>(value >> kSeqBits),
                              value & kSeqMask};
    }
};

/** Index-table occupancy and churn statistics. */
struct IndexTableStats
{
    std::uint64_t lookups = 0;
    std::uint64_t lookupHits = 0;
    std::uint64_t updates = 0;
    std::uint64_t inserts = 0;
    std::uint64_t replacements = 0;
};

inline bool
operator==(const IndexTableStats &lhs, const IndexTableStats &rhs)
{
    return lhs.lookups == rhs.lookups &&
           lhs.lookupHits == rhs.lookupHits &&
           lhs.updates == rhs.updates && lhs.inserts == rhs.inserts &&
           lhs.replacements == rhs.replacements;
}

/** Bucketized LRU hash table from block address to history pointer. */
class IndexTable
{
  public:
    /**
     * @param total_bytes main-memory footprint; 0 = unbounded (ideal).
     * @param entries_per_bucket pairs packed into one 64B block (12).
     */
    explicit IndexTable(std::uint64_t total_bytes,
                        std::uint32_t entries_per_bucket = 12);

    /** Find the pointer for @p block; refreshes bucket LRU on hit. */
    std::optional<HistoryPointer> lookup(Addr block);

    /**
     * Insert or refresh the mapping for @p block. Evicts the bucket's
     * LRU pair when the bucket is full.
     */
    void update(Addr block, HistoryPointer pointer);

    /** Software-prefetch the slot-map entries of the buckets
     *  @p blocks hash to (host cache warm-up hint; no architectural
     *  effect, no stats). */
    void prefetchBatch(std::span<const Addr> blocks) const;

    /** Bucket number @p block hashes to (for bucket-buffer modeling). */
    std::uint64_t bucketOf(Addr block) const;

    std::uint64_t numBuckets() const { return buckets_; }
    bool unbounded() const { return buckets_ == 0; }
    std::uint64_t footprintBytes() const;

    /** Total pairs currently stored. O(1): maintained live on
     *  insert/replace (benches poll this per interval). */
    std::uint64_t occupancy() const
    {
        return unbounded() ? map_.size() : pairs_;
    }

    /** The O(buckets x entries) recount of occupancy(); kept as a
     *  debug cross-check of the live counter. */
    std::uint64_t occupancyScan() const;

    const IndexTableStats &stats() const { return stats_; }
    void resetStats() { stats_ = IndexTableStats{}; }

  private:
    std::uint32_t entriesPerBucket_;
    std::uint64_t buckets_;
    /** Bounded storage (SoA buckets; see core/index_bucket.hh). */
    detail::BucketStore store_;
    /** Unbounded (idealized) storage, keyed by block number. */
    std::unordered_map<Addr, std::uint64_t> map_;
    /** Live pair count of the bounded store (the O(1) occupancy). */
    std::uint64_t pairs_ = 0;
    IndexTableStats stats_;
};

} // namespace stms

#endif // STMS_CORE_INDEX_TABLE_HH
