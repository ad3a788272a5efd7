/**
 * @file
 * On-chip bucket buffer (Sec. 4.3).
 *
 * An 8 KB fully-associative cache of index-table buckets that holds
 * bucket blocks between lookup, update, and write-back, letting STMS
 * delay bucket write-backs until memory bandwidth is available. A hit
 * saves the off-chip read of an update's read-modify-write; dirty
 * buckets are written back on eviction.
 *
 * Host layout: a fixed pool of capacity() nodes kept in exact LRU
 * order by a doubly linked list of 32-bit node indices (MRU first),
 * found through an open-addressed table of {bucket, node} slots at
 * most a quarter full (linear probing, backward-shift deletion). Bucket
 * numbers are already hashed (hashToBucket()), so a bucket's home slot
 * is its low bits. Probe, insert and eviction are O(1) and allocate
 * nothing after construction.
 */

#ifndef STMS_CORE_BUCKET_BUFFER_HH
#define STMS_CORE_BUCKET_BUFFER_HH

#include <cstdint>

#include "common/arena.hh"
#include "common/types.hh"

namespace stms
{

/** Bucket-buffer access statistics. */
struct BucketBufferStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
};

/**
 * What BucketBuffer::insert() displaced: a bucket that was dirty and
 * must be written back. A plain struct rather than std::optional: GCC
 * returns it in two registers, while it builds an optional on the
 * stack with a byte store and a wider reload that defeats store
 * forwarding on every insert.
 */
struct BucketWriteback
{
    std::uint64_t bucket = 0;  ///< The victim; 0 when not needed.
    bool needed = false;

    explicit operator bool() const { return needed; }
    bool operator==(const BucketWriteback &) const = default;
};

/** Fully-associative LRU cache of index-table bucket numbers. */
class BucketBuffer
{
  public:
    /** @param capacity buckets held (8KB / 64B = 128). */
    explicit BucketBuffer(std::uint32_t capacity = 128);

    /**
     * Probe and refresh LRU; a hit with @p dirty set marks the bucket
     * dirty (an update applied on chip). @return true on hit.
     */
    bool probe(std::uint64_t bucket, bool dirty);

    /**
     * Install a bucket as MRU after fetching it from memory, dirty when
     * @p dirty is set. A bucket already resident is refreshed and keeps
     * its dirty bit. Counts no hit or miss.
     * @return the displaced bucket when it was dirty and must be
     *         written back (the write-back targets the victim's
     *         address, not the new bucket's).
     */
    BucketWriteback insert(std::uint64_t bucket, bool dirty);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const { return size_; }

    const BucketBufferStats &stats() const { return stats_; }
    void resetStats() { stats_ = BucketBufferStats{}; }

  private:
    struct Node
    {
        std::uint64_t bucket;
        std::uint32_t prev;  ///< Toward MRU; kNil at the head.
        std::uint32_t next;  ///< Toward LRU; kNil at the tail.
        bool dirty;
    };

    /** Table slot; empty when node == kNil. */
    struct Slot
    {
        std::uint64_t bucket;
        std::uint32_t node;
    };

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Node holding @p bucket, or kNil. */
    std::uint32_t find(std::uint64_t bucket) const;
    /** Move a linked node to the MRU end. */
    void touch(std::uint32_t node);
    /** Link an unlinked node at the MRU end. */
    void linkFront(std::uint32_t node);
    /** Drop @p node's slot, shifting its cluster back over the hole. */
    void unindex(std::uint32_t node);

    std::uint32_t capacity_;
    std::uint32_t size_ = 0;     ///< Nodes [0, size_) are in use.
    std::uint32_t head_ = kNil;  ///< MRU node.
    std::uint32_t tail_ = kNil;  ///< LRU node.
    std::uint64_t mask_;         ///< Table slots - 1.
    ArenaBuffer<Node> nodes_;
    ArenaBuffer<Slot> slots_;
    BucketBufferStats stats_;
};

} // namespace stms

#endif // STMS_CORE_BUCKET_BUFFER_HH
