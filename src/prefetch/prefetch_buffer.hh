/**
 * @file
 * Fully-associative prefetch buffer (2 KB = 32 blocks per core).
 *
 * Prefetched blocks wait here until a demand access consumes them or
 * LRU pressure evicts them; an unused eviction is an erroneous
 * prefetch. Keeping prefetched data out of the caches avoids pollution
 * (Sec. 4.2, following Jouppi's victim/stream buffers).
 *
 * Storage is one flat MRU-first address array — at 32 entries that is
 * four cache lines scanned with findFirstEqual() (common/scan.hh),
 * where the old list+hash-map pair cost a heap node and a pointer chase per
 * block. Recency moves are the same shift-to-front the index buckets
 * use, so LRU order (and therefore every eviction) is bit-identical
 * to the list implementation.
 */

#ifndef STMS_PREFETCH_PREFETCH_BUFFER_HH
#define STMS_PREFETCH_PREFETCH_BUFFER_HH

#include <cstdint>
#include <optional>

#include "common/arena.hh"
#include "common/types.hh"

namespace stms
{

/** Fully-associative LRU buffer of prefetched block addresses. */
class PrefetchBuffer
{
  public:
    explicit PrefetchBuffer(std::uint32_t capacity = 32);

    PrefetchBuffer(PrefetchBuffer &&) = default;
    PrefetchBuffer &operator=(PrefetchBuffer &&) = default;

    /** Non-destructive presence check. */
    bool contains(Addr block) const;

    /**
     * Consume a block on a demand hit: removes it and frees the entry.
     * @return true if the block was present.
     */
    bool consume(Addr block);

    /**
     * Insert a freshly prefetched block. If the buffer is full the LRU
     * entry is evicted and returned so the caller can count it as an
     * erroneous prefetch.
     */
    std::optional<Addr> insert(Addr block);

    /** Drop a block without counting it as used (e.g., invalidation). */
    bool invalidate(Addr block);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const { return count_; }
    std::uint32_t room() const { return capacity_ - count_; }

  private:
    std::uint32_t capacity_;
    std::uint32_t count_ = 0;
    /** blocks_[0, count_), MRU at slot 0. */
    ArenaBuffer<Addr> blocks_;
};

} // namespace stms

#endif // STMS_PREFETCH_PREFETCH_BUFFER_HH
