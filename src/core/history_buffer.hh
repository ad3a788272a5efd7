/**
 * @file
 * Per-core history buffer (Sec. 4.2).
 *
 * A circular log of the core's correct-path off-chip miss addresses
 * and prefetched hits, allocated in a private region of main memory.
 * Entries are packed twelve to a 64-byte block, so one block write is
 * charged per twelve appends (Sec. 5.5: "a single densely-packed
 * history buffer write is performed for every twelve off-chip read
 * misses").
 *
 * The buffer also carries the end-of-stream annotations STMS writes
 * when a followed stream stops being consumed (Sec. 4.5): a marked
 * entry pauses streaming until the core explicitly requests it.
 *
 * Sequence numbers grow monotonically; an entry is readable while it
 * is within the retention window (capacity entries behind the head),
 * which is exactly the staleness rule index-table pointers are checked
 * against.
 *
 * Storage is structure-of-arrays — block addresses in one array, end
 * marks in another — so the window operations are flat loops:
 * readWindow() hands a stream engine a whole packed block of
 * successors with two copies instead of an entry-at-a-time walk, and
 * scanWindow() runs findFirstEqual() (common/scan.hh) over the
 * retained window. Both are bit-identical to the per-entry walks they
 * replace (tests/core/history_buffer_test.cc pins this).
 */

#ifndef STMS_CORE_HISTORY_BUFFER_HH
#define STMS_CORE_HISTORY_BUFFER_HH

#include <cstdint>

#include "common/arena.hh"
#include "common/types.hh"

namespace stms
{

/** One logged miss address plus its end-of-stream annotation bit. */
struct HistoryEntry
{
    Addr block = kInvalidAddr;
    bool endMark = false;
};

/** Circular miss-address log with block-packed write accounting. */
class HistoryBuffer
{
  public:
    /**
     * @param capacity_entries retention window; 0 = unbounded
     *        (idealized on-chip meta-data).
     * @param entries_per_block packing density for write accounting.
     */
    explicit HistoryBuffer(std::uint64_t capacity_entries,
                           std::uint32_t entries_per_block = 12);

    /**
     * Append a miss address.
     * @return the sequence number of the new entry.
     */
    SeqNum append(Addr block);

    /** Next sequence number to be written. */
    SeqNum head() const { return head_; }

    /** Entries appended over the buffer's lifetime. */
    std::uint64_t totalAppends() const { return head_; }

    /** True if @p seq is still within the retention window. */
    bool valid(SeqNum seq) const;

    /** Read an entry; @p seq must satisfy valid(). */
    HistoryEntry at(SeqNum seq) const;

    /**
     * Copy the @p max_entries entries starting at @p first into
     * @p blocks / @p marks (wrap handled internally). @p first must
     * satisfy valid() and the window [first, first + max_entries)
     * must not pass head(). The stream engines' queue-fill path.
     */
    void readWindow(SeqNum first, std::uint32_t max_entries,
                    Addr *blocks, std::uint8_t *marks) const;

    /**
     * First sequence number in [first, head()) whose logged address
     * equals @p block, or kInvalidSeq. @p first must satisfy valid()
     * or equal head(). First match over the retained window.
     */
    SeqNum scanWindow(SeqNum first, Addr block) const;

    /**
     * Set the end-of-stream mark on @p seq if it is still retained.
     * @return true if the mark was applied.
     */
    bool setEndMark(SeqNum seq);

    /**
     * True when the most recent append completed a packed block — the
     * caller charges one block of MetaRecord write traffic.
     */
    bool lastAppendCompletedBlock() const;

    std::uint64_t capacity() const { return capacity_; }
    bool unbounded() const { return capacity_ == 0; }
    std::uint32_t entriesPerBlock() const { return entriesPerBlock_; }

    /** Main-memory footprint in bytes (entries packed 12/block). */
    std::uint64_t footprintBytes() const;

  private:
    /** Storage slot of @p seq (caller checked valid()). */
    std::uint64_t
    slotOf(SeqNum seq) const
    {
        return unbounded() ? seq : seq % capacity_;
    }

    /** Grow the unbounded arrays to hold at least one more entry. */
    void growUnbounded();

    std::uint64_t capacity_;
    std::uint32_t entriesPerBlock_;
    /**
     * SoA entry storage: blocks_ is the logged address per slot;
     * marks_ is the end-mark byte per slot. Bounded mode sizes both
     * at capacity_ once; unbounded mode doubles them on demand.
     * Slots are written by append() before any read can see them
     * (valid() bounds every access by head_), so the storage is
     * allocated uninitialized — no zero-fill, pages fault in as the
     * log grows — and comes from the run arena when one is installed.
     */
    ArenaBuffer<Addr> blocks_;
    ArenaBuffer<std::uint8_t> marks_;
    /** Allocated entry slots. */
    std::uint64_t slots_ = 0;
    SeqNum head_ = 0;
};

} // namespace stms

#endif // STMS_CORE_HISTORY_BUFFER_HH
