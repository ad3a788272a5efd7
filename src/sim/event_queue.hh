/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global time-ordered queue of callbacks, in the gem5
 * tradition. Ties are broken by insertion order so that runs are
 * exactly deterministic.
 */

#ifndef STMS_SIM_EVENT_QUEUE_HH
#define STMS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/inplace_function.hh"
#include "common/types.hh"

namespace stms
{

/** Time-ordered queue of scheduled callbacks. */
class EventQueue
{
  public:
    /**
     * Inline-storage callback: scheduling an event never allocates.
     * 64 bytes covers every simulator capture (the largest is a
     * memory-controller completion callback plus its data-ready
     * tick); larger captures fail to compile rather than silently
     * regressing to per-event mallocs.
     */
    using Callback = InplaceFunction<void(), 64>;

    /** Initial capacity of the key heap, the slab and the free list:
     *  big enough that simulation never regrows them (the trace
     *  replays, fig7 and mem_tech_sweep keep at most 61 events
     *  pending), small enough (112 KB: 24-byte keys, 80-byte
     *  callbacks and 8-byte slot numbers) to be irrelevant next to a
     *  System's other allocations. */
    static constexpr std::size_t kInitialCapacity = 1024;

    EventQueue();

    /** Current simulated time in cycles. */
    Cycle now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now). */
    void scheduleAt(Cycle when, Callback fn);

    /** Schedule @p fn @p delay cycles in the future. */
    void
    schedule(Cycle delay, Callback fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    /** Run until the queue is empty. Returns the final tick. */
    Cycle run();

    /** Run until the queue is empty or @p limit is reached. */
    Cycle runUntil(Cycle limit);

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }
    std::uint64_t executed() const { return executed_; }

  private:
    /** What the heap orders: when an event fires, its insertion
     *  number, and the slab slot holding its callback. */
    struct Key
    {
        Cycle tick;
        std::uint64_t seq;
        std::size_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.tick != b.tick)
                return a.tick > b.tick;
            return a.seq > b.seq;
        }
    };

    /**
     * Explicit binary heap (std::push_heap/pop_heap over a reserved
     * vector) of 24-byte keys: a sift step copies a key, where moving
     * a callback would be an indirect call through its relocate
     * thunk. Each callback sits in its slab slot from scheduleAt()
     * until runUntil() moves it out, frees the slot and runs it. The
     * move-out comes first because a running callback may schedule
     * events, and a push onto a full slab moves every slot.
     */
    std::vector<Key> heap_;
    std::vector<Callback> slab_;
    /** Slots of events already run; reused last-freed first. */
    std::vector<std::size_t> freeSlots_;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace stms

#endif // STMS_SIM_EVENT_QUEUE_HH
