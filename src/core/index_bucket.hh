/**
 * @file
 * In-bucket storage and LRU mechanics of the index table (Sec. 4.3).
 *
 * One bucket models a single 64-byte memory block holding up to
 * twelve {key, pointer} pairs kept in LRU order, MRU at slot 0.
 * IndexTable owns one BucketStore for its bounded mode.
 *
 * Storage is structure-of-arrays, tuned for the probe fast path:
 *
 *  - a dense byte of live-pair count per bucket (valid pairs always
 *    form a prefix, because every insert and refresh promotes to MRU),
 *  - the keys of one bucket contiguous (96 bytes at the paper's
 *    packing), so a miss scan touches 1-2 cache lines instead of the
 *    5 lines the old array-of-structs layout spread a bucket over,
 *  - pointers in a parallel array, touched only on a hit.
 *
 * Only the count array needs zero-initialization (count 0 == empty
 * bucket); keys and pointers are allocated uninitialized and never
 * read beyond the count, which makes constructing a multi-megabyte
 * table nearly free — the profile showed eager zero-fill of the old
 * layout costing ~40% of a short sweep.
 */

#ifndef STMS_CORE_INDEX_BUCKET_HH
#define STMS_CORE_INDEX_BUCKET_HH

#include <cstdint>
#include <optional>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/scan.hh"
#include "common/types.hh"
#include "common/zeroed_buffer.hh"

namespace stms::detail
{

/** Host cache-line size assumed by the software-prefetch hints (the
 *  ubiquitous 64 bytes; a wrong guess only mistunes a hint). */
inline constexpr std::size_t kCacheLineBytes = 64;

/** What an in-bucket update did (drives stat and occupancy counters). */
enum class BucketUpdate : std::uint8_t
{
    Refreshed,  ///< Key present: pointer rewritten, moved to MRU.
    Inserted,   ///< Key absent: a free slot was used.
    Replaced,   ///< Key absent: the LRU pair was displaced.
};

/** SoA bucket array with exact in-bucket LRU (MRU at slot 0). */
class BucketStore
{
  public:
    BucketStore() = default;

    /** Allocate @p buckets empty buckets of @p entries pairs each.
     *  Both arrays come from the run arena when one is installed
     *  (torn down for free, recycled warm across a worker thread's
     *  consecutive runs). */
    void
    reset(std::uint64_t buckets, std::uint32_t entries)
    {
        stms_assert(entries > 0 && entries <= 255,
                    "entries per bucket %u outside [1, 255]", entries);
        entries_ = entries;
        buckets_ = buckets;
        counts_.reset(buckets);
        keys_.reset(buckets * entries);
        pointers_.reset(buckets * entries);
    }

    /** Find @p key in @p bucket; a hit refreshes the LRU order. */
    std::optional<std::uint64_t>
    lookup(std::uint64_t bucket, std::uint64_t key)
    {
        const std::uint32_t count = counts_[bucket];
        std::uint64_t *keys = &keys_[bucket * entries_];
        const std::size_t i = findFirstEqual(keys, count, key);
        if (i != kNpos) {
            std::uint64_t *pointers = &pointers_[bucket * entries_];
            const std::uint64_t hit = pointers[i];
            promote(keys, pointers, static_cast<std::uint32_t>(i), key,
                    hit);
            return hit;
        }
        return std::nullopt;
    }

    /** Insert or refresh {key, pointer}: MRU insertion, LRU
     *  displacement when the bucket is full. */
    BucketUpdate
    update(std::uint64_t bucket, std::uint64_t key,
           std::uint64_t pointer)
    {
        const std::uint32_t count = counts_[bucket];
        std::uint64_t *keys = &keys_[bucket * entries_];
        std::uint64_t *pointers = &pointers_[bucket * entries_];
        const std::size_t i = findFirstEqual(keys, count, key);
        if (i != kNpos) {
            promote(keys, pointers, static_cast<std::uint32_t>(i), key,
                    pointer);
            return BucketUpdate::Refreshed;
        }
        if (count < entries_) {
            promote(keys, pointers, count, key, pointer);
            counts_[bucket] = static_cast<std::uint8_t>(count + 1);
            return BucketUpdate::Inserted;
        }
        promote(keys, pointers, entries_ - 1, key, pointer);
        return BucketUpdate::Replaced;
    }

    /**
     * Software-prefetch @p bucket's probe working set into the host
     * cache: the count byte and the key array (the lines every probe
     * scans; 12 keys span two lines). Purely a host-side hint —
     * __builtin_prefetch has no architectural effect, so warming
     * buckets ahead of their probes cannot change model output.
     * Pointers are NOT prefetched: they are touched only on a hit,
     * and pulling a third line per probe evicts more than it saves.
     */
    void
    prefetchBucket(std::uint64_t bucket) const
    {
        __builtin_prefetch(&counts_[bucket], /*rw=*/0, /*locality=*/1);
        const std::uint64_t *keys = &keys_[bucket * entries_];
        __builtin_prefetch(keys, 0, 1);
        if (entries_ * sizeof(std::uint64_t) > kCacheLineBytes)
            __builtin_prefetch(
                reinterpret_cast<const char *>(keys) + kCacheLineBytes,
                0, 1);
    }

    /** Total live pairs (O(buckets) recount; debug cross-check). */
    std::uint64_t
    occupancyScan() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t b = 0; b < buckets_; ++b)
            total += counts_[b];
        return total;
    }

    std::uint64_t numBuckets() const { return buckets_; }

  private:
    /** Shift slots [0, index) down one; write the pair at MRU. */
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
    /** Live-pair count per bucket; zero = empty, the only state that
     *  needs initialization. */
    ZeroedBuffer<std::uint8_t> counts_;
    /** keys_[bucket * entries_ + slot], MRU-first; uninitialized
     *  beyond each bucket's count. */
    ArenaBuffer<std::uint64_t> keys_;
    ArenaBuffer<std::uint64_t> pointers_;
};

} // namespace stms::detail

#endif // STMS_CORE_INDEX_BUCKET_HH
