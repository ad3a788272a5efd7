/**
 * @file
 * Backend conformance suite: every memory backend (fixed, queued,
 * DRAM) must honor the MemBackend contract — callbacks fire exactly
 * once, completions within a priority class at one address are FIFO,
 * byte accounting matches request() arguments, resetStats() zeroes
 * every counter, and demand traffic beats meta-data traffic under
 * saturation. Also pins the single-channel model, `fixed` and
 * `queued,channels=1`, tick-for-tick on a deterministic request
 * script (the unit-level half of the bit-identity regression).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>

#include "sim/mem_backend.hh"

namespace stms
{
namespace
{

struct BackendCase
{
    const char *name;
    MemBackendKind kind;
    /** channels() of the kind's default spec. */
    std::uint32_t channels;
};

/**
 * Print a case as its backend name. gtest's default would dump the
 * struct's raw bytes, name pointer included, and ctest bakes that
 * dump into each test's name — so the names would shift with every
 * build's load address.
 */
void
PrintTo(const BackendCase &backend_case, std::ostream *os)
{
    *os << backend_case.name;
}

/** Block @p n as a byte address (all backends decode block numbers). */
Addr
blockAddr(std::uint64_t n)
{
    return n * kBlockBytes;
}

class MemBackendConformance
    : public ::testing::TestWithParam<BackendCase>
{
  protected:
    std::unique_ptr<MemBackend>
    make(EventQueue &events, bool functional = false)
    {
        MemBackendSpec spec;
        spec.kind = GetParam().kind;
        MemCtrlConfig config;
        config.functional = functional;
        return makeMemBackend(events, spec, config);
    }
};

TEST_P(MemBackendConformance, ReportsItsOwnKind)
{
    EventQueue events;
    auto mem = make(events);
    EXPECT_STREQ(memBackendKindName(GetParam().kind), GetParam().name);
    EXPECT_EQ(mem->channels(), GetParam().channels);
}

TEST_P(MemBackendConformance, CallbackFiresExactlyOnce)
{
    EventQueue events;
    auto mem = make(events);
    std::vector<int> fired(8, 0);
    events.schedule(0, [&]() {
        for (std::uint64_t i = 0; i < fired.size(); ++i) {
            // Mixed classes/priorities, distinct addresses.
            const auto cls = (i % 2) ? TrafficClass::MetaLookup
                                     : TrafficClass::DemandRead;
            const auto prio =
                (i % 2) ? Priority::Low : Priority::High;
            mem->request(cls, prio, blockAddr(i * 129), 1,
                         [&fired, i](Cycle) { ++fired[i]; });
        }
    });
    events.run();
    for (std::uint64_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], 1) << "request " << i;
}

TEST_P(MemBackendConformance, FifoWithinPriorityClassAtOneAddress)
{
    EventQueue events;
    auto mem = make(events);
    std::vector<int> order;
    std::vector<Cycle> ticks;
    events.schedule(0, [&]() {
        for (int i = 0; i < 6; ++i) {
            mem->request(TrafficClass::MetaLookup, Priority::Low,
                         blockAddr(7), 1, [&, i](Cycle tick) {
                             order.push_back(i);
                             ticks.push_back(tick);
                         });
        }
    });
    events.run();
    ASSERT_EQ(order.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(order[i], i);
    for (std::size_t i = 1; i < ticks.size(); ++i)
        EXPECT_GE(ticks[i], ticks[i - 1]);
}

TEST_P(MemBackendConformance, ByteAccountingMatchesRequestArgs)
{
    EventQueue events;
    auto mem = make(events);
    events.schedule(0, [&]() {
        mem->request(TrafficClass::DemandRead, Priority::High,
                     blockAddr(0), 1, nullptr);
        mem->request(TrafficClass::DemandWriteback, Priority::Low,
                     blockAddr(1), 1, nullptr);
        mem->request(TrafficClass::MetaUpdate, Priority::Low,
                     blockAddr(2), 3, nullptr);
        mem->request(TrafficClass::MetaRecord, Priority::Low,
                     blockAddr(3), 2, nullptr);
    });
    events.run();
    const MemCtrlStats &stats = mem->stats();
    EXPECT_EQ(stats.bytesFor(TrafficClass::DemandRead), kBlockBytes);
    EXPECT_EQ(stats.bytesFor(TrafficClass::DemandWriteback),
              kBlockBytes);
    EXPECT_EQ(stats.bytesFor(TrafficClass::MetaUpdate),
              3 * kBlockBytes);
    EXPECT_EQ(stats.bytesFor(TrafficClass::MetaRecord),
              2 * kBlockBytes);
    EXPECT_EQ(stats.totalBytes(), 7 * kBlockBytes);
    EXPECT_EQ(stats.highPrioRequests, 1u);
    EXPECT_EQ(stats.lowPrioRequests, 3u);
}

TEST_P(MemBackendConformance, ResetStatsZeroesEverything)
{
    EventQueue events;
    auto mem = make(events);
    events.schedule(0, [&]() {
        for (int i = 0; i < 10; ++i) {
            mem->request(TrafficClass::MetaLookup, Priority::Low,
                         blockAddr(i), 1, nullptr);
            mem->request(TrafficClass::DemandRead, Priority::High,
                         blockAddr(i + 64), 1, nullptr);
        }
    });
    events.run();
    ASSERT_GT(mem->stats().totalBytes(), 0u);
    mem->resetStats();
    const MemCtrlStats &stats = mem->stats();
    EXPECT_EQ(stats.totalBytes(), 0u);
    EXPECT_EQ(stats.busyCycles, 0u);
    EXPECT_EQ(stats.highPrioRequests, 0u);
    EXPECT_EQ(stats.lowPrioRequests, 0u);
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
        EXPECT_EQ(stats.requests[c], 0u);
    EXPECT_EQ(mem->rowStats().totalAccesses(), 0u);
    EXPECT_DOUBLE_EQ(mem->utilization(1000), 0.0);
}

TEST_P(MemBackendConformance, DemandBeatsMetaUnderSaturation)
{
    EventQueue events;
    auto mem = make(events);
    std::vector<char> completions;
    events.schedule(0, [&]() {
        // All requests hammer one address so every backend serializes
        // them on a single resource (channel 0 / bank 0). The first
        // low occupies it; the demand arriving last must still finish
        // before the queued lows.
        for (int i = 0; i < 4; ++i) {
            mem->request(TrafficClass::MetaLookup, Priority::Low,
                         blockAddr(3), 1,
                         [&](Cycle) { completions.push_back('L'); });
        }
        mem->request(TrafficClass::DemandRead, Priority::High,
                     blockAddr(3), 1,
                     [&](Cycle) { completions.push_back('H'); });
    });
    events.run();
    ASSERT_EQ(completions.size(), 5u);
    const auto high =
        std::find(completions.begin(), completions.end(), 'H');
    ASSERT_NE(high, completions.end());
    // At most the already-in-flight low may precede the demand.
    EXPECT_LE(high - completions.begin(), 1);
}

TEST_P(MemBackendConformance, FunctionalModeCompletesImmediately)
{
    EventQueue events;
    auto mem = make(events, /*functional=*/true);
    bool called = false;
    mem->request(TrafficClass::Prefetch, Priority::Low, blockAddr(5),
                 2, [&](Cycle tick) {
                     called = true;
                     EXPECT_EQ(tick, 0u);
                 });
    EXPECT_TRUE(called);
    EXPECT_EQ(mem->stats().bytesFor(TrafficClass::Prefetch),
              2 * kBlockBytes);
    EXPECT_EQ(mem->stats().busyCycles, 0u);
    EXPECT_EQ(mem->rowStats().totalAccesses(), 0u);
}

TEST_P(MemBackendConformance, UtilizationStaysBounded)
{
    EventQueue events;
    auto mem = make(events);
    Cycle last_done = 0;
    events.schedule(0, [&]() {
        // Deterministic pseudo-random script: stride pattern mixing
        // banks, channels, classes, and burst lengths.
        std::uint64_t block = 1;
        for (int i = 0; i < 64; ++i) {
            block = block * 2862933555777941757ULL + 3037000493ULL;
            const auto cls = (i % 3 == 0) ? TrafficClass::DemandRead
                                          : TrafficClass::MetaRecord;
            const auto prio =
                (i % 3 == 0) ? Priority::High : Priority::Low;
            const std::uint32_t blocks = 1 + (i % 4);
            mem->request(cls, prio, blockAddr(block % (1 << 20)),
                         blocks, [&](Cycle tick) {
                             last_done = std::max(last_done, tick);
                         });
        }
    });
    events.run();
    ASSERT_GT(last_done, 0u);
    // Busy cycles can never exceed elapsed x channels.
    EXPECT_LE(mem->utilization(last_done), 1.0);
    EXPECT_GT(mem->utilization(last_done), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, MemBackendConformance,
    ::testing::Values(BackendCase{"fixed", MemBackendKind::Fixed, 1},
                      BackendCase{"queued", MemBackendKind::Queued, 2},
                      BackendCase{"dram", MemBackendKind::Dram, 1}),
    [](const ::testing::TestParamInfo<BackendCase> &backend_case) {
        return backend_case.param.name;
    });

// ----------------------------------------------------------------
// Unit half of the bit-identity regression: Table 1's channel, as the
// default spec and as queued,channels=1, must reproduce tick-for-tick
// and stat-for-stat what the simulator's original single-channel
// controller (MemController) produced on a deterministic request
// script. The literals below were measured on that controller.

struct ScriptStep
{
    Cycle at;
    TrafficClass cls;
    Priority prio;
    std::uint32_t blocks;
};

const ScriptStep kIdentityScript[] = {
    {0, TrafficClass::DemandRead, Priority::High, 1},
    {0, TrafficClass::MetaLookup, Priority::Low, 1},
    {3, TrafficClass::MetaRecord, Priority::Low, 4},
    {3, TrafficClass::DemandRead, Priority::High, 1},
    {50, TrafficClass::DemandWriteback, Priority::Low, 1},
    {190, TrafficClass::MetaUpdate, Priority::Low, 2},
    {200, TrafficClass::DemandRead, Priority::High, 1},
    {201, TrafficClass::Prefetch, Priority::Low, 1},
    {400, TrafficClass::MetaLookup, Priority::Low, 1},
};

/** Run kIdentityScript on @p spec's backend; check it against the
 *  single-channel controller's measured ticks and counters. Addresses
 *  vary with @p stride, and one channel must serve them all. */
void
expectSingleChannelScript(const MemBackendSpec &spec, std::uint64_t stride)
{
    EventQueue events;
    auto mem = makeMemBackend(events, spec, MemCtrlConfig{});
    std::vector<Cycle> ticks;
    for (const ScriptStep &step : kIdentityScript) {
        events.schedule(step.at, [&, step]() {
            mem->request(step.cls, step.prio,
                         blockAddr(step.blocks * stride), step.blocks,
                         [&ticks](Cycle tick) { ticks.push_back(tick); });
        });
    }
    events.run();

    const std::vector<Cycle> expected = {189, 198, 207, 243, 252,
                                         388, 397, 406, 589};
    EXPECT_EQ(ticks, expected);

    const MemCtrlStats &stats = mem->stats();
    EXPECT_EQ(stats.busyCycles, 117u);
    EXPECT_EQ(stats.highPrioRequests, 3u);
    EXPECT_EQ(stats.lowPrioRequests, 6u);
}

TEST(FixedBackendIdentity, MatchesMemControllerExactly)
{
    expectSingleChannelScript(MemBackendSpec{}, 977);  // Default: fixed.
}

TEST(FixedBackendIdentity, SingleChannelQueuedMatchesMemController)
{
    MemBackendSpec spec;
    spec.kind = MemBackendKind::Queued;
    spec.channels = 1;
    expectSingleChannelScript(spec, 31);
}

} // namespace
} // namespace stms
