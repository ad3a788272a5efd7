/** @file Table 1 timing of the default (`fixed`) memory backend: one
 *  45 ns, 28.4 GB/s channel on which demand beats meta-data. */

#include <gtest/gtest.h>

#include <memory>

#include "sim/mem_backend.hh"

namespace stms
{
namespace
{

MemCtrlConfig
tableOneConfig()
{
    return MemCtrlConfig{};  // 180-cycle access, 9 cycles/transfer.
}

/** The backend the driver builds without --mem-backend. */
std::unique_ptr<MemBackend>
makeFixed(EventQueue &events, const MemCtrlConfig &config)
{
    return makeMemBackend(events, MemBackendSpec{}, config);
}

/** Every request targets block 0: one channel serves them all. */
constexpr Addr kAddr = 0;

TEST(MemCtrl, SingleReadLatency)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    Cycle done = 0;
    events.schedule(0, [&]() {
        mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                     [&](Cycle tick) { done = tick; });
    });
    events.run();
    EXPECT_EQ(done, 189u);  // access latency + one transfer.
}

TEST(MemCtrl, BandwidthSerializesTransfers)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    std::vector<Cycle> done;
    events.schedule(0, [&]() {
        for (int i = 0; i < 4; ++i) {
            mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                         [&](Cycle tick) { done.push_back(tick); });
        }
    });
    events.run();
    ASSERT_EQ(done.size(), 4u);
    // Grants pipeline behind each other by transferCycles.
    EXPECT_EQ(done[0], 189u);
    EXPECT_EQ(done[1], 198u);
    EXPECT_EQ(done[2], 207u);
    EXPECT_EQ(done[3], 216u);
}

TEST(MemCtrl, HighPriorityBeatsQueuedLowPriority)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    std::vector<int> completion_order;
    events.schedule(0, [&]() {
        // One request occupies the channel; then a low and a high
        // arrive while it is busy: the high must be granted first.
        mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                     nullptr);
        mem->request(TrafficClass::MetaLookup, Priority::Low, kAddr, 1,
                     [&](Cycle) { completion_order.push_back(2); });
        mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                     [&](Cycle) { completion_order.push_back(1); });
    });
    events.run();
    ASSERT_EQ(completion_order.size(), 2u);
    EXPECT_EQ(completion_order[0], 1);
    EXPECT_EQ(completion_order[1], 2);
}

TEST(MemCtrl, MultiBlockRequestOccupiesLonger)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    Cycle first = 0, second = 0;
    events.schedule(0, [&]() {
        mem->request(TrafficClass::MetaLookup, Priority::Low, kAddr, 4,
                     [&](Cycle tick) { first = tick; });
        mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                     [&](Cycle tick) { second = tick; });
    });
    events.run();
    EXPECT_EQ(first, 180u + 4 * 9u);
    // The demand waits for the 36-cycle transfer, then 180 + 9.
    EXPECT_EQ(second, 36u + 189u);
}

TEST(MemCtrl, FunctionalModeZeroLatencyButCounted)
{
    EventQueue events;
    MemCtrlConfig config;
    config.functional = true;
    auto mem = makeFixed(events, config);
    bool called = false;
    mem->request(TrafficClass::Prefetch, Priority::Low, kAddr, 2,
                 [&](Cycle tick) {
                     called = true;
                     EXPECT_EQ(tick, 0u);
                 });
    EXPECT_TRUE(called);
    EXPECT_EQ(mem->stats().bytesFor(TrafficClass::Prefetch),
              2 * kBlockBytes);
    EXPECT_EQ(mem->stats().busyCycles, 0u);
}

TEST(MemCtrl, TrafficAccounting)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    events.schedule(0, [&]() {
        mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                     nullptr);
        mem->request(TrafficClass::DemandWriteback, Priority::Low, kAddr, 1,
                     nullptr);
        mem->request(TrafficClass::MetaUpdate, Priority::Low, kAddr, 3,
                     nullptr);
    });
    events.run();
    const auto &stats = mem->stats();
    EXPECT_EQ(stats.totalBytes(), 5 * kBlockBytes);
    EXPECT_EQ(stats.overheadBytes(), 3 * kBlockBytes);
    EXPECT_EQ(stats.highPrioRequests, 1u);
    EXPECT_EQ(stats.lowPrioRequests, 2u);
    EXPECT_EQ(stats.busyCycles, 5 * 9u);
}

TEST(MemCtrl, UtilizationFromBusyCycles)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    events.schedule(0, [&]() {
        mem->request(TrafficClass::DemandRead, Priority::High, kAddr, 1,
                     nullptr);
    });
    events.run();
    EXPECT_DOUBLE_EQ(mem->utilization(90), 0.1);
    EXPECT_DOUBLE_EQ(mem->utilization(0), 0.0);
}

TEST(MemCtrl, WritesMayOmitCallback)
{
    EventQueue events;
    auto mem = makeFixed(events, tableOneConfig());
    events.schedule(0, [&]() {
        mem->request(TrafficClass::DemandWriteback, Priority::Low, kAddr, 1,
                     nullptr);
    });
    events.run();  // Must not crash; channel must free.
    EXPECT_EQ(mem->stats().requests[static_cast<std::size_t>(
                  TrafficClass::DemandWriteback)],
              1u);
}

} // namespace
} // namespace stms
