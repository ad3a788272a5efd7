/** @file Unit tests for InplaceFunction: in-place construction, the
 *  fused invoke-and-destroy, and the moves the event queue relies on
 *  never happening. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "common/inplace_function.hh"

namespace stms
{
namespace
{

using Fn = InplaceFunction<int(int), 32>;

struct Counts
{
    int moves = 0;
    int calls = 0;
    int destroyed = 0;
};

/** Adds its offset to the argument, counting moves, calls and
 *  destructions. */
struct Counting
{
    Counts *counts;
    int offset;

    Counting(Counts *c, int off) : counts(c), offset(off) {}
    Counting(Counting &&other) noexcept
        : counts(other.counts), offset(other.offset)
    {
        ++counts->moves;
    }
    ~Counting() { ++counts->destroyed; }

    int
    operator()(int x)
    {
        ++counts->calls;
        return x + offset;
    }
};

TEST(InplaceFunction, EmplaceBuildsTheCallableInPlace)
{
    Counts counts;
    Fn fn;
    fn.emplace(Counting(&counts, 1));
    // Built from the temporary once; the temporary is gone.
    EXPECT_EQ(counts.moves, 1);
    EXPECT_EQ(counts.destroyed, 1);
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(2), 3);
    EXPECT_EQ(fn(5), 6);
    EXPECT_EQ(counts.moves, 1);
    EXPECT_EQ(counts.calls, 2);
}

TEST(InplaceFunction, EmplaceDestroysTheHeldCallableFirst)
{
    Counts first;
    Counts second;
    Fn fn(Counting(&first, 1));
    fn.emplace(Counting(&second, 10));
    EXPECT_EQ(first.destroyed, 2);  // temporary and held callable
    EXPECT_EQ(fn(1), 11);
    EXPECT_EQ(first.calls, 0);
}

TEST(InplaceFunction, ConsumeInvokesOnceAndDestroysOnce)
{
    Counts counts;
    {
        Fn fn;
        fn.emplace(Counting(&counts, 4));
        EXPECT_EQ(fn.consume(3), 7);
        EXPECT_FALSE(fn);
        EXPECT_EQ(counts.calls, 1);
        EXPECT_EQ(counts.destroyed, 2);
    }
    // The emptied function destroys nothing more.
    EXPECT_EQ(counts.destroyed, 2);
    EXPECT_EQ(counts.moves, 1);
}

TEST(InplaceFunction, ConsumeDestroysWhenTheCallThrows)
{
    Counts counts;
    struct Throwing
    {
        Counting inner;
        void
        operator()()
        {
            inner(0);
            throw std::runtime_error("boom");
        }
    };
    InplaceFunction<void(), 32> fn;
    fn.emplace(Throwing{Counting(&counts, 0)});
    const int destroyed_before = counts.destroyed;
    EXPECT_THROW(fn.consume(), std::runtime_error);
    EXPECT_FALSE(fn);
    EXPECT_EQ(counts.calls, 1);
    EXPECT_EQ(counts.destroyed, destroyed_before + 1);
}

TEST(InplaceFunction, MoveRelocatesAndEmptiesTheSource)
{
    Counts counts;
    Fn a(Counting(&counts, 2));
    const int moves_before = counts.moves;
    Fn b(std::move(a));
    EXPECT_FALSE(a);
    EXPECT_EQ(counts.moves, moves_before + 1);
    EXPECT_EQ(b(1), 3);
    a = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(a(1), 3);
    a = nullptr;
    EXPECT_FALSE(a);
    // Every callable built was destroyed exactly once.
    EXPECT_EQ(counts.destroyed, counts.moves + 1);
}

} // namespace
} // namespace stms
