/**
 * @file
 * In-bucket storage and LRU mechanics of the index table (Sec. 4.3).
 *
 * One bucket models a single 64-byte memory block holding up to
 * twelve {key, pointer} pairs kept in LRU order, MRU first.
 * IndexTable owns one BucketStore for its bounded mode.
 *
 * A bucket gets its host storage at its first update: a per-bucket
 * slot map hands out dense storage slots in first-touch order, so host
 * memory grows with the buckets a run writes, not with the modeled
 * table size (a replay writes 5-10% of a 16 MB table's buckets).
 * Storage is structure-of-arrays, indexed by slot:
 *
 *  - the slot map, one 4-byte entry per bucket, zero-initialized
 *    (0 = never written), so a lookup of a never-written bucket reads
 *    one entry and nothing else,
 *  - a byte of live-pair count per slot (valid pairs always form a
 *    prefix, because every insert and refresh promotes to MRU),
 *  - the keys of one slot contiguous (96 bytes at the paper's
 *    packing), so a miss scan touches 1-2 host cache lines,
 *  - pointers in a parallel array, touched only on a hit.
 *
 * Counts, keys and pointers are allocated uninitialized at their full
 * size from the run arena and never read beyond the slots handed out,
 * so nothing ever grows or copies, and pages past the last slot are
 * never faulted in.
 */

#ifndef STMS_CORE_INDEX_BUCKET_HH
#define STMS_CORE_INDEX_BUCKET_HH

#include <cstdint>
#include <limits>
#include <optional>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/scan.hh"
#include "common/types.hh"
#include "common/zeroed_buffer.hh"

namespace stms::detail
{

/** What an in-bucket update did (drives stat and occupancy counters). */
enum class BucketUpdate : std::uint8_t
{
    Refreshed,  ///< Key present: pointer rewritten, moved to MRU.
    Inserted,   ///< Key absent: a free way was used.
    Replaced,   ///< Key absent: the LRU pair was displaced.
};

/** SoA bucket array with exact in-bucket LRU (MRU at way 0). */
class BucketStore
{
  public:
    BucketStore() = default;

    /** Allocate @p buckets empty buckets of @p entries pairs each.
     *  The slot-indexed arrays come from the run arena when one is
     *  installed (torn down for free, recycled warm across a worker
     *  thread's consecutive runs). */
    void
    reset(std::uint64_t buckets, std::uint32_t entries)
    {
        stms_assert(entries > 0 && entries <= 255,
                    "entries per bucket %u outside [1, 255]", entries);
        stms_assert(buckets < std::numeric_limits<std::uint32_t>::max(),
                    "%llu buckets overflow the 32-bit slot map",
                    static_cast<unsigned long long>(buckets));
        entries_ = entries;
        buckets_ = buckets;
        slotsUsed_ = 0;
        slotOf_.reset(buckets);
        counts_.reset(buckets);
        keys_.reset(buckets * entries);
        pointers_.reset(buckets * entries);
    }

    /** Find @p key in @p bucket; a hit refreshes the LRU order. */
    std::optional<std::uint64_t>
    lookup(std::uint64_t bucket, std::uint64_t key)
    {
        const std::uint32_t mapped = slotOf_[bucket];
        if (mapped == 0)
            return std::nullopt;  // Never written.
        const std::size_t slot = mapped - 1;
        std::uint64_t *keys = &keys_[slot * entries_];
        const std::size_t i = findFirstEqual(keys, counts_[slot], key);
        if (i != kNpos) {
            std::uint64_t *pointers = &pointers_[slot * entries_];
            const std::uint64_t hit = pointers[i];
            promote(keys, pointers, static_cast<std::uint32_t>(i), key,
                    hit);
            return hit;
        }
        return std::nullopt;
    }

    /** Insert or refresh {key, pointer}: MRU insertion, LRU
     *  displacement when the bucket is full. The first update of a
     *  bucket claims the next storage slot. */
    BucketUpdate
    update(std::uint64_t bucket, std::uint64_t key,
           std::uint64_t pointer)
    {
        std::uint32_t &mapped = slotOf_[bucket];
        if (mapped == 0) {
            counts_[slotsUsed_] = 0;
            mapped = ++slotsUsed_;
        }
        const std::size_t slot = mapped - 1;
        const std::uint32_t count = counts_[slot];
        std::uint64_t *keys = &keys_[slot * entries_];
        std::uint64_t *pointers = &pointers_[slot * entries_];
        const std::size_t i = findFirstEqual(keys, count, key);
        if (i != kNpos) {
            promote(keys, pointers, static_cast<std::uint32_t>(i), key,
                    pointer);
            return BucketUpdate::Refreshed;
        }
        if (count < entries_) {
            promote(keys, pointers, count, key, pointer);
            counts_[slot] = static_cast<std::uint8_t>(count + 1);
            return BucketUpdate::Inserted;
        }
        promote(keys, pointers, entries_ - 1, key, pointer);
        return BucketUpdate::Replaced;
    }

    /**
     * Software-prefetch @p bucket's slot-map entry into the host
     * cache: the one line every probe reads first, and all a probe of
     * a never-written bucket reads. Purely a host-side hint —
     * __builtin_prefetch has no architectural effect, so warming
     * buckets ahead of their probes cannot change model output. The
     * keys are not prefetched: where they live is known only once the
     * entry itself has arrived.
     */
    void
    prefetchBucket(std::uint64_t bucket) const
    {
        __builtin_prefetch(&slotOf_[bucket], /*rw=*/0, /*locality=*/1);
    }

    /** Total live pairs (O(slots) recount; debug cross-check). */
    std::uint64_t
    occupancyScan() const
    {
        std::uint64_t total = 0;
        for (std::uint32_t s = 0; s < slotsUsed_; ++s)
            total += counts_[s];
        return total;
    }

    std::uint64_t numBuckets() const { return buckets_; }

    /** Buckets written so far: the storage slots handed out. */
    std::uint32_t slotsUsed() const { return slotsUsed_; }

  private:
    /** Shift ways [0, index) down one; write the pair at MRU. */
    static void
    promote(std::uint64_t *keys, std::uint64_t *pointers,
            std::uint32_t index, std::uint64_t key,
            std::uint64_t pointer)
    {
        for (std::uint32_t j = index; j > 0; --j) {
            keys[j] = keys[j - 1];
            pointers[j] = pointers[j - 1];
        }
        keys[0] = key;
        pointers[0] = pointer;
    }

    std::uint32_t entries_ = 0;
    std::uint64_t buckets_ = 0;
    std::uint32_t slotsUsed_ = 0;
    /** Per bucket, 1 + its storage slot; 0 = never written, the only
     *  state that needs initialization. */
    ZeroedBuffer<std::uint32_t> slotOf_;
    /** Live-pair count per slot; uninitialized past slotsUsed_. */
    ArenaBuffer<std::uint8_t> counts_;
    /** keys_[slot * entries_ + way], MRU-first; uninitialized beyond
     *  each slot's count. */
    ArenaBuffer<std::uint64_t> keys_;
    ArenaBuffer<std::uint64_t> pointers_;
};

} // namespace stms::detail

#endif // STMS_CORE_INDEX_BUCKET_HH
