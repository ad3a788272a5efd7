// Self-time arithmetic of the traced client's span stack, on explicit
// timestamps (no clock), including functional mode's re-entrant
// core -> port -> core nesting; and the span clock's conversion to
// nanoseconds.

#include <gtest/gtest.h>

#include "span_stack.hh"

namespace sweepbench
{
namespace
{

const LayerTotals &
of(const LayerTable &table, Layer layer)
{
    return table[static_cast<std::size_t>(layer)];
}

TEST(SpanStack, SingleSpanIsAllSelf)
{
    SpanStack stack;
    stack.begin(Layer::Sim, 100);
    stack.end(350);
    const LayerTable t = stack.take();
    EXPECT_EQ(of(t, Layer::Sim).totalTicks, 250);
    EXPECT_EQ(of(t, Layer::Sim).selfTicks, 250);
    EXPECT_EQ(of(t, Layer::Sim).spans, 1u);
    EXPECT_EQ(of(t, Layer::Sim).children, 0u);
}

TEST(SpanStack, ReentrantNestingSplitsTheRootExactly)
{
    // sim [0, 100)
    //   core [10, 60)          hook
    //     port [15, 45)        metaRequest
    //       core [20, 35)      inline completion re-enters core
    //   prefetch [70, 80)
    SpanStack stack;
    stack.begin(Layer::Sim, 0);
    stack.begin(Layer::Core, 10);
    stack.begin(Layer::Port, 15);
    stack.begin(Layer::Core, 20);
    stack.end(35);
    stack.end(45);
    stack.end(60);
    stack.begin(Layer::Prefetch, 70);
    stack.end(80);
    stack.end(100);
    EXPECT_EQ(stack.depth(), 0u);

    const LayerTable t = stack.take();
    EXPECT_EQ(of(t, Layer::Sim).selfTicks, 100 - 50 - 10);
    EXPECT_EQ(of(t, Layer::Core).selfTicks, (50 - 30) + 15);
    EXPECT_EQ(of(t, Layer::Port).selfTicks, 30 - 15);
    EXPECT_EQ(of(t, Layer::Prefetch).selfTicks, 10);
    // The re-entered layer's total counts its nested span again...
    EXPECT_EQ(of(t, Layer::Core).totalTicks, 50 + 15);
    EXPECT_EQ(of(t, Layer::Core).spans, 2u);
    // ...but self times partition the root interval.
    std::int64_t self_sum = 0;
    for (const LayerTotals &layer : t)
        self_sum += layer.selfTicks;
    EXPECT_EQ(self_sum, 100);
    // Direct children only: sim has core + prefetch, the outer core
    // has port, port has the inner core.
    EXPECT_EQ(of(t, Layer::Sim).children, 2u);
    EXPECT_EQ(of(t, Layer::Core).children, 1u);
    EXPECT_EQ(of(t, Layer::Port).children, 1u);
}

TEST(SpanStack, TakeResetsTotalsButKeepsOpenSpans)
{
    SpanStack stack;
    stack.begin(Layer::Workload, 0);
    stack.begin(Layer::TraceIo, 5);
    stack.end(9);
    const LayerTable first = stack.take();
    EXPECT_EQ(of(first, Layer::TraceIo).selfTicks, 4);
    EXPECT_EQ(of(first, Layer::Workload).spans, 0u);
    stack.end(20);
    const LayerTable second = stack.take();
    EXPECT_EQ(of(second, Layer::TraceIo).spans, 0u);
    EXPECT_EQ(of(second, Layer::Workload).selfTicks, 20 - 4);
}

TEST(SpanClock, TicksAdvanceAndConvertToNanoseconds)
{
    const double ns_per_tick = nsPerTick();
    ASSERT_GT(ns_per_tick, 0.0);
    const std::int64_t ns0 = steadyNs();
    const std::int64_t ticks0 = nowTicks();
    while (steadyNs() - ns0 < 20'000'000) {
    }
    const double measured_ns =
        static_cast<double>(nowTicks() - ticks0) * ns_per_tick;
    EXPECT_GT(measured_ns, 19e6);
    EXPECT_LT(measured_ns, 40e6);
}

TEST(SpanStack, LayerNamesAreDistinct)
{
    for (std::size_t a = 0; a < kNumLayers; ++a)
        for (std::size_t b = a + 1; b < kNumLayers; ++b)
            EXPECT_STRNE(layerName(static_cast<Layer>(a)),
                         layerName(static_cast<Layer>(b)));
}

} // namespace
} // namespace sweepbench
