/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "sim/mem_backend.hh"

namespace stms
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.scheduleAt(30, [&]() { order.push_back(3); });
    queue.scheduleAt(10, [&]() { order.push_back(1); });
    queue.scheduleAt(20, [&]() { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        queue.scheduleAt(5, [&order, i]() { order.push_back(i); });
    queue.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesWithExecution)
{
    EventQueue queue;
    Cycle seen = 0;
    queue.scheduleAt(42, [&]() { seen = queue.now(); });
    queue.run();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(queue.now(), 42u);
}

TEST(EventQueue, ScheduleRelativeDelay)
{
    EventQueue queue;
    Cycle seen = 0;
    queue.scheduleAt(10, [&]() {
        queue.schedule(5, [&]() { seen = queue.now(); });
    });
    queue.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            queue.schedule(1, chain);
    };
    queue.schedule(0, chain);
    queue.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(queue.executed(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue queue;
    int ran = 0;
    queue.scheduleAt(10, [&]() { ++ran; });
    queue.scheduleAt(100, [&]() { ++ran; });
    queue.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(queue.pending(), 1u);
    queue.run();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, SlabGrowsWhileACallbackRuns)
{
    // The running callback schedules enough events to allocate many
    // more node chunks, then still reads its own captures. Callbacks
    // run in place, in their nodes; this holds only because chunks
    // never move and the running node is not freed until it returns.
    constexpr std::size_t kSpawned = 16 * EventQueue::kChunkEvents;
    EventQueue queue;
    std::vector<std::pair<Cycle, std::size_t>> order;
    std::size_t marker = 0;
    const std::size_t sentinel = 0xfeedbeef;
    queue.scheduleAt(1, [&queue, &order, &marker, sentinel]() {
        for (std::size_t i = 0; i < kSpawned; ++i) {
            queue.schedule(i % 7, [&queue, &order, i]() {
                order.emplace_back(queue.now(), i);
            });
        }
        marker = sentinel;
    });
    queue.run();
    EXPECT_EQ(marker, sentinel);
    ASSERT_EQ(order.size(), kSpawned);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(queue.executed(), kSpawned + 1);
    // Last: the highest i with i % 7 == 6 (4094, as 4095 % 7 == 0).
    EXPECT_EQ(order.back(), std::make_pair(Cycle{7}, kSpawned - 2));
}

TEST(EventQueue, SameTickFifoWhenFreedSlotsAreReused)
{
    // The first batch frees its slots in one order; the second batch
    // takes them back in the reverse order, yet must still run in the
    // order it was scheduled.
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        queue.scheduleAt(10, [&order, i]() { order.push_back(i); });
    queue.runUntil(10);
    for (int i = 4; i < 10; ++i)
        queue.scheduleAt(20, [&order, i]() { order.push_back(i); });
    queue.scheduleAt(15, [&order]() { order.push_back(-1); });
    queue.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, -1, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, CallbacksAreDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue queue;
        for (Cycle tick = 10; tick < 18; ++tick)
            queue.scheduleAt(tick, [token]() {});
        EXPECT_EQ(token.use_count(), 9);
        // A callback is destroyed once it has run, not when its slot
        // is reused.
        queue.runUntil(12);
        EXPECT_EQ(token.use_count(), 6);
        queue.scheduleAt(20, [token]() {});
        EXPECT_EQ(token.use_count(), 7);
    }
    // The six still pending went with the queue.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PendingCountsEventsNotSlots)
{
    EventQueue queue;
    for (Cycle tick = 1; tick <= 10; ++tick)
        queue.scheduleAt(tick, []() {});
    EXPECT_EQ(queue.pending(), 10u);
    queue.runUntil(5);
    EXPECT_EQ(queue.pending(), 5u);
    for (Cycle tick = 6; tick <= 8; ++tick)
        queue.scheduleAt(tick, []() {});
    EXPECT_EQ(queue.pending(), 8u);
    queue.run();
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.executed(), 13u);
}

/** Moves, calls and destructions of one callable and its moved-to
 *  copies. */
struct Counts
{
    int moves = 0;
    int calls = 0;
    int destroyed = 0;
};

struct CountingCallable
{
    Counts *counts;

    explicit CountingCallable(Counts *c) : counts(c) {}
    CountingCallable(CountingCallable &&other) noexcept
        : counts(other.counts)
    {
        ++counts->moves;
    }
    ~CountingCallable() { ++counts->destroyed; }
    void operator()() { ++counts->calls; }
};

TEST(EventQueue, CallbacksRunWhereTheyWereBuilt)
{
    // One move builds each callable in its node (from the temporary
    // passed in); neither dispatch nor the overflow heap moves it
    // again, and it is destroyed once, right after its one call.
    Counts near;
    Counts far;
    EventQueue queue;
    queue.scheduleAt(10, CountingCallable(&near));
    queue.scheduleAt(10 + 3 * EventQueue::kWheelTicks,
                     CountingCallable(&far));
    EXPECT_EQ(near.moves, 1);
    EXPECT_EQ(far.moves, 1);
    EXPECT_EQ(near.destroyed, 1);  // the temporary
    queue.runUntil(10);
    EXPECT_EQ(near.calls, 1);
    EXPECT_EQ(near.destroyed, 2);
    EXPECT_EQ(far.calls, 0);
    queue.run();
    EXPECT_EQ(far.moves, 1);
    EXPECT_EQ(far.calls, 1);
    EXPECT_EQ(far.destroyed, 2);
}

TEST(EventQueue, PendingCallbacksDieWithTheQueue)
{
    Counts counts;
    {
        EventQueue queue;
        queue.scheduleAt(5, CountingCallable(&counts));
        queue.scheduleAt(7, CountingCallable(&counts));
        queue.scheduleAt(EventQueue::kWheelTicks + 7,
                         CountingCallable(&counts));
        queue.scheduleAt(kMaxMemCycles, CountingCallable(&counts));
        queue.runUntil(5);
        EXPECT_EQ(counts.calls, 1);
        EXPECT_EQ(counts.destroyed, 5);  // four temporaries, one run
    }
    // One in the wheel and two in the overflow heap went with it.
    EXPECT_EQ(counts.calls, 1);
    EXPECT_EQ(counts.destroyed, 8);
}

/** A delay mix that hits the wheel's edges: now(), the next tick, the
 *  last wheel tick, the first overflow ticks and the longest memory
 *  latency, besides near and far random delays. */
Cycle
pickDelay(std::uint64_t r)
{
    constexpr Cycle kWheel = EventQueue::kWheelTicks;
    const std::uint64_t pick = r % 32;
    r >>= 5;
    switch (pick) {
      case 0:
      case 1:
        return 0;
      case 2:
        return 1;
      case 3:
        return kWheel - 1;
      case 4:
        return kWheel;
      case 5:
        return kWheel + 1;
      case 6:
        return kMaxMemCycles;
      case 7:
        return r % (kMaxMemCycles + 1);
      case 8:
      case 9:
      case 10:
        return r % (2 * kWheel);
      default:
        return r % 64;
    }
}

/** What an event does when it runs, as a function of its id alone:
 *  schedule no child, one, two, or a burst of eight at one tick. On
 *  average one, so the population neither dies out nor explodes. */
template <typename Spawn>
void
spawnChildren(std::uint64_t id, Spawn &&spawn)
{
    std::uint64_t state = id;
    const std::uint64_t r = splitMix64(state);
    const std::uint64_t kind = r % 64;
    const Cycle delay = pickDelay(r >> 6);
    if (kind < 20)
        return;
    if (kind < 60) {
        spawn(delay);
    } else if (kind < 62) {
        spawn(delay);
        spawn(pickDelay(splitMix64(state)));
    } else {
        for (int i = 0; i < 8; ++i)
            spawn(delay);
    }
}

using FiringLog = std::vector<std::pair<std::uint64_t, Cycle>>;

/** The queue under test, scheduling children from inside callbacks. */
struct WheelSide
{
    EventQueue queue;
    FiringLog log;
    std::uint64_t nextId = 0;
    std::uint64_t budget = 0;

    void
    spawn(Cycle delay)
    {
        if (nextId == budget)
            return;
        const std::uint64_t id = nextId++;
        queue.schedule(delay, [this, id]() { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        log.emplace_back(id, queue.now());
        spawnChildren(id, [this](Cycle delay) { spawn(delay); });
    }
};

/** The reference: a std::priority_queue ordered by (tick, seq). */
struct ReferenceSide
{
    struct Entry
    {
        Cycle tick;
        std::uint64_t seq;
        std::uint64_t id;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.tick != b.tick)
                return a.tick > b.tick;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    Cycle now = 0;
    std::uint64_t seq = 0;
    std::uint64_t executed = 0;
    FiringLog log;
    std::uint64_t nextId = 0;
    std::uint64_t budget = 0;

    void
    spawn(Cycle delay)
    {
        if (nextId == budget)
            return;
        heap.push(Entry{now + delay, seq++, nextId++});
    }

    void
    runUntil(Cycle limit)
    {
        while (!heap.empty() && heap.top().tick <= limit) {
            const Entry entry = heap.top();
            heap.pop();
            now = entry.tick;
            ++executed;
            log.emplace_back(entry.id, now);
            spawnChildren(entry.id,
                          [this](Cycle delay) { spawn(delay); });
        }
    }
};

TEST(EventQueue, MatchesAReferenceHeapOnRandomSchedules)
{
    constexpr std::uint64_t kEvents = 200000;
    WheelSide wheel;
    ReferenceSide reference;
    wheel.budget = reference.budget = kEvents;
    Rng rng(0x5742);
    for (int i = 0; i < 64; ++i) {
        const Cycle delay = pickDelay(rng.next());
        wheel.spawn(delay);
        reference.spawn(delay);
    }
    std::uint64_t rounds = 0;
    while (!reference.heap.empty() || reference.nextId < kEvents) {
        // Between runs, schedule from outside any callback too.
        const std::uint64_t r = rng.next();
        for (std::uint64_t i = 0; i < r % 3; ++i) {
            const Cycle delay = pickDelay(rng.next());
            wheel.spawn(delay);
            reference.spawn(delay);
        }
        // Limits from now() (only what is due this tick) to three
        // wheel spans past the next event, which may be far ahead.
        const Cycle base = r % 4 == 0 || reference.heap.empty()
                               ? reference.now
                               : reference.heap.top().tick;
        const Cycle limit =
            base + (r >> 2) % (3 * EventQueue::kWheelTicks);
        wheel.queue.runUntil(limit);
        reference.runUntil(limit);
        ASSERT_EQ(wheel.log.size(), reference.log.size())
            << "round " << rounds;
        ASSERT_EQ(wheel.queue.now(), reference.now) << "round " << rounds;
        ASSERT_EQ(wheel.queue.pending(), reference.heap.size())
            << "round " << rounds;
        ASSERT_EQ(wheel.queue.executed(), reference.executed)
            << "round " << rounds;
        ++rounds;
    }
    EXPECT_TRUE(wheel.queue.empty());
    EXPECT_EQ(wheel.log, reference.log);
    EXPECT_EQ(wheel.queue.executed(), kEvents);
    // The run wrapped the wheel many times over.
    EXPECT_GT(reference.now / EventQueue::kWheelTicks, 1000u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue queue;
    queue.scheduleAt(100, []() {});
    queue.run();
    EXPECT_DEATH(queue.scheduleAt(50, []() {}), "past");
}

} // namespace
} // namespace stms
