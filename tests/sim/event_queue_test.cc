/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

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
    // The running callback schedules enough events to regrow the
    // slab it was taken from, then still reads its own captures: a
    // callback run in place would read freed storage here.
    constexpr std::size_t kSpawned = 4 * EventQueue::kInitialCapacity;
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

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue queue;
    queue.scheduleAt(100, []() {});
    queue.run();
    EXPECT_DEATH(queue.scheduleAt(50, []() {}), "past");
}

} // namespace
} // namespace stms
