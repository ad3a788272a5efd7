/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global time-ordered queue of callbacks, in the gem5
 * tradition. Ties are broken by insertion order so that runs are
 * exactly deterministic.
 *
 * The queue is a timing wheel (R. Brown, "Calendar Queues", CACM
 * 31(10), 1988): one FIFO bucket per tick for the next kWheelTicks
 * ticks, an occupancy bitmap to find the next non-empty one, and a
 * small overflow heap for the rare event scheduled further ahead.
 * Scheduling and dispatch are O(1) and nothing is sifted. A callback
 * is built in its event node when scheduled and run there, then
 * destroyed, through one indirect call.
 */

#ifndef STMS_SIM_EVENT_QUEUE_HH
#define STMS_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
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

    /** Ticks the wheel spans: an event fewer than this many ticks
     *  ahead of now() goes straight into its tick's bucket. The
     *  simulator's own horizons stay under 2,400 ticks; only long
     *  configured memory latencies reach the overflow heap. */
    static constexpr Cycle kWheelTicks = 4096;

    /** Event nodes per allocation chunk (24 KB). Chunks never move,
     *  so a callback runs in its node even while it schedules enough
     *  events to allocate more chunks. The trace replays, fig7 and
     *  mem_tech_sweep keep at most 61 events pending: one chunk. */
    static constexpr std::size_t kChunkEvents = 256;

    EventQueue();

    /** Current simulated time in cycles. */
    Cycle now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now). The callable
     *  is built in its event node, where it later runs. */
    template <typename F>
    void
    scheduleAt(Cycle when, F &&fn)
    {
        Node *node = takeNode();
        node->fn.emplace(std::forward<F>(fn));
        enqueue(when, node);
    }

    /** Schedule @p fn @p delay cycles in the future. */
    template <typename F>
    void
    schedule(Cycle delay, F &&fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /** Run until the queue is empty. Returns the final tick. */
    Cycle run();

    /** Run until the queue is empty or @p limit is reached. */
    Cycle runUntil(Cycle limit);

    bool empty() const { return pending_ == 0; }
    std::size_t pending() const { return pending_; }
    std::uint64_t executed() const { return executed_; }

  private:
    /** A scheduled callback, linked into a bucket FIFO, or into the
     *  free list once it has run. */
    struct Node
    {
        Callback fn;
        Node *next = nullptr;
    };

    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** An event kWheelTicks or more ahead: ordered by (tick, seq)
     *  until now() comes close enough to put it in the wheel. */
    struct Overflow
    {
        Cycle tick;
        std::uint64_t seq;
        Node *node;
    };

    static constexpr Cycle kWheelMask = kWheelTicks - 1;
    static constexpr std::size_t kWords = kWheelTicks / 64;
    static_assert((kWheelTicks & kWheelMask) == 0 && kWords > 0);

    Node *
    takeNode()
    {
        if (freeNodes_ == nullptr)
            addChunk();
        Node *node = freeNodes_;
        freeNodes_ = node->next;
        return node;
    }

    void addChunk();
    void enqueue(Cycle when, Node *node);
    void pushBucket(Cycle when, Node *node);
    /** The earliest tick with a wheel event; the wheel is non-empty. */
    Cycle nextWheelTick() const;
    /** Move overflow events now within the wheel's span into it. */
    void admitOverflow();

    /**
     * Invariants: every wheel event's tick lies in
     * [now_, now_ + kWheelTicks), so a bucket holds one tick; every
     * overflow event's tick is at least now_ + kWheelTicks. Overflow
     * events are admitted as soon as now_ advances, before a callback
     * at the new tick can schedule anything, so a bucket's FIFO is
     * always in (tick, seq) order. The 64 KB of buckets live on the
     * heap because a CmpSystem, queue included, lives on runTrace()'s
     * stack.
     */
    std::unique_ptr<Bucket[]> buckets_;
    std::array<std::uint64_t, kWords> occupied_{};
    std::vector<Overflow> overflow_;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *freeNodes_ = nullptr;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace stms

#endif // STMS_SIM_EVENT_QUEUE_HH
