/**
 * @file
 * Functional set-associative LRU cache model.
 *
 * The cache is functional: it tracks presence/dirtiness and hit/miss
 * statistics; latency composition is done by the MemorySystem that owns
 * it. This mirrors the split in trace-driven simulators where the tag
 * array is exact and timing is layered on top. Replacement is LRU, as
 * in the paper's Table 1 caches.
 *
 * Each set is kept MRU-first as structure-of-arrays: 8-byte block
 * tags, a dirty byte per way, and a live-way count per set (valid
 * ways always form a prefix). A hit or refill shifts its way to the
 * front, a fill inserts at the front and evicts the last way only
 * when the set is full, and an invalidation closes the gap, so the
 * last live way is always the least recently used. A 16-way L2 probe
 * scans 128 bytes of tags: two host cache lines.
 *
 * Tags and dirty bytes come from the run arena when one is installed
 * and are never read past a set's count; only the counts are
 * zero-initialized.
 */

#ifndef STMS_SIM_CACHE_HH
#define STMS_SIM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/arena.hh"
#include "common/scan.hh"
#include "common/types.hh"
#include "common/zeroed_buffer.hh"

namespace stms
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 2;
};

/** Result of a cache eviction: what got displaced, if anything. */
struct Eviction
{
    bool valid = false;   ///< A valid block was displaced.
    bool dirty = false;   ///< Displaced block needs writeback.
    Addr blockAddr = kInvalidAddr;
};

/** Aggregate hit/miss statistics for a cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t invalidations = 0;

    double
    missRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(misses) /
                                  static_cast<double>(total);
    }
};

/** Set-associative, write-back, write-allocate LRU cache tag array. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access a block. On a hit, recency is updated and dirtiness is
     * accumulated for writes. Returns true on hit. Does not allocate;
     * callers fill separately once the block arrives. Inline: this is
     * the per-record probe fast path (every L1 access runs it).
     */
    bool
    access(Addr block_addr, bool is_write)
    {
        block_addr = blockAlign(block_addr);
        const std::uint64_t set = setIndex(block_addr);
        const std::size_t way = findWay(set, block_addr);
        if (way != kNpos) {
            ++stats_.hits;
            promote(set, way, block_addr, is_write || isDirty(set, way));
            return true;
        }
        ++stats_.misses;
        return false;
    }

    /** Probe without disturbing recency or stats. */
    bool
    contains(Addr block_addr) const
    {
        block_addr = blockAlign(block_addr);
        return findWay(setIndex(block_addr), block_addr) != kNpos;
    }

    /**
     * Install a block as its set's MRU way, displacing the least
     * recently used block if the set is full.
     * @return description of the displaced block, if any.
     */
    Eviction fill(Addr block_addr, bool dirty = false);

    /** Remove a block if present; returns true if it was present. */
    bool invalidate(Addr block_addr);

    /** Mark an existing block dirty (e.g., write hits from merges). */
    void markDirty(Addr block_addr);

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t sizeBytes() const { return sets_ * ways_ * kBlockBytes; }
    const std::string &name() const { return name_; }

    /** Count of currently valid blocks (O(sets); for tests). */
    std::uint64_t occupancy() const;

  private:
    std::uint64_t
    setIndex(Addr block_addr) const
    {
        return blockNumber(block_addr) & (sets_ - 1);
    }

    /** Way of @p set holding @p block_addr, or kNpos. */
    std::size_t
    findWay(std::uint64_t set, Addr block_addr) const
    {
        return findFirstEqual(&tags_[set * ways_], counts_[set],
                              block_addr);
    }

    bool
    isDirty(std::uint64_t set, std::size_t way) const
    {
        return dirty_[set * ways_ + way] != 0;
    }

    /** Shift ways [0, @p way) of @p set back one and write
     *  {@p block_addr, @p dirty} as the set's MRU way. */
    void
    promote(std::uint64_t set, std::size_t way, Addr block_addr,
            bool dirty)
    {
        Addr *tags = &tags_[set * ways_];
        std::uint8_t *dirties = &dirty_[set * ways_];
        for (std::size_t w = way; w > 0; --w) {
            tags[w] = tags[w - 1];
            dirties[w] = dirties[w - 1];
        }
        tags[0] = block_addr;
        dirties[0] = dirty;
    }

    std::string name_;
    std::uint64_t sets_;
    std::uint32_t ways_;
    /** tags_[set * ways_ + way], MRU-first; uninitialized beyond each
     *  set's count. */
    ArenaBuffer<Addr> tags_;
    /** Dirty byte parallel to tags_. */
    ArenaBuffer<std::uint8_t> dirty_;
    /** Live ways per set; zero = empty set. */
    ZeroedBuffer<std::uint8_t> counts_;
    CacheStats stats_;
};

} // namespace stms

#endif // STMS_SIM_CACHE_HH
