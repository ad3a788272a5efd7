/** @file Unit tests for the per-run bump arena (common/arena.hh). */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/arena.hh"

namespace stms
{
namespace
{

TEST(Arena, HandsOutAlignedDistinctStorage)
{
    Arena arena;
    void *a = arena.allocate(100, 8);
    void *b = arena.allocate(100, 8);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kAlign, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kAlign, 0u);
    // Storage is writable across the whole request.
    std::memset(a, 0xab, 100);
    std::memset(b, 0xcd, 100);
    EXPECT_EQ(static_cast<unsigned char *>(a)[99], 0xab);
}

TEST(Arena, ResetReuseReturnsIdenticalPointers)
{
    // The determinism contract: an identical allocation sequence after
    // reset() sees identical pointers — arena reuse is invisible to
    // the byte-identity gates.
    Arena arena;
    const std::size_t sizes[] = {64, 8, 4096, 100, 1 << 20, 24};
    std::vector<void *> first;
    for (const std::size_t size : sizes)
        first.push_back(arena.allocate(size, 8));
    arena.reset();
    std::vector<void *> second;
    for (const std::size_t size : sizes)
        second.push_back(arena.allocate(size, 8));
    EXPECT_EQ(first, second);
}

TEST(Arena, GrowsAcrossBlocksAndKeepsThemOnReset)
{
    Arena arena;
    // Force several block allocations.
    for (int i = 0; i < 8; ++i)
        arena.allocate(Arena::kFirstBlockBytes, 8);
    const std::size_t blocks = arena.blockCount();
    EXPECT_GT(blocks, 1u);
    const std::size_t reserved = arena.reservedBytes();
    arena.reset();
    EXPECT_EQ(arena.blockCount(), blocks);  // blocks are kept...
    EXPECT_EQ(arena.reservedBytes(), reserved);
    EXPECT_EQ(arena.allocatedBytes(), 0u);  // ...but the cursor rewinds
}

TEST(Arena, BudgetExhaustionFallsBackToHeap)
{
    Arena arena(1024);  // tiny budget
    void *in_block = arena.allocate(512, 8);
    ASSERT_NE(in_block, nullptr);
    EXPECT_EQ(arena.overflowCount(), 0u);
    // Past the budget: still served, via tracked heap overflow.
    void *overflow = arena.allocate(1 << 20, 8);
    ASSERT_NE(overflow, nullptr);
    EXPECT_GE(arena.overflowCount(), 1u);
    std::memset(overflow, 0x5a, 1 << 20);  // fully usable
    arena.reset();
    EXPECT_EQ(arena.overflowCount(), 0u);  // freed on reset
}

TEST(Arena, OverAlignedRequestsUseOverflowPath)
{
    Arena arena;
    void *p = arena.allocate(256, 4096);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 4096, 0u);
    EXPECT_EQ(arena.overflowCount(), 1u);
    arena.reset();
    EXPECT_EQ(arena.overflowCount(), 0u);
}

TEST(ArenaScope, InstallsAndRestoresCurrentArena)
{
    EXPECT_EQ(currentArena(), nullptr);
    Arena outer_arena;
    {
        ArenaScope outer(&outer_arena);
        EXPECT_EQ(currentArena(), &outer_arena);
        Arena inner_arena;
        {
            ArenaScope inner(&inner_arena);
            EXPECT_EQ(currentArena(), &inner_arena);
        }
        EXPECT_EQ(currentArena(), &outer_arena);
    }
    EXPECT_EQ(currentArena(), nullptr);
}

TEST(ScopedRunArena, OutermostOwnsNestedIsNoop)
{
    EXPECT_EQ(currentArena(), nullptr);
    {
        ScopedRunArena outer;
        Arena *run_arena = currentArena();
        ASSERT_NE(run_arena, nullptr);
        run_arena->allocate(64, 8);
        const std::size_t allocated = run_arena->allocatedBytes();
        EXPECT_GT(allocated, 0u);
        {
            ScopedRunArena nested;  // same arena, no reset on exit
            EXPECT_EQ(currentArena(), run_arena);
        }
        EXPECT_EQ(currentArena(), run_arena);
        EXPECT_EQ(run_arena->allocatedBytes(), allocated);
    }
    EXPECT_EQ(currentArena(), nullptr);
    // The next outermost scope reuses the thread's cached arena, reset.
    {
        ScopedRunArena again;
        ASSERT_NE(currentArena(), nullptr);
        EXPECT_EQ(currentArena()->allocatedBytes(), 0u);
    }
}

TEST(ArenaBuffer, UsesHeapWithoutArenaAndArenaWithin)
{
    ASSERT_EQ(currentArena(), nullptr);
    ArenaBuffer<std::uint64_t> heap_buffer(32);  // heap fallback
    heap_buffer[0] = 1;
    heap_buffer[31] = 2;
    EXPECT_EQ(heap_buffer.size(), 32u);

    Arena arena;
    {
        ArenaScope scope(&arena);
        ArenaBuffer<std::uint64_t> arena_buffer(32);
        EXPECT_GT(arena.allocatedBytes(), 0u);
        arena_buffer[0] = 3;
        EXPECT_EQ(arena_buffer[0], 3u);
        // Destruction inside the scope is a no-op for the arena.
    }
    arena.reset();
}

TEST(ArenaBuffer, MoveTransfersOwnership)
{
    ArenaBuffer<std::uint64_t> a(8);
    a[0] = 99;
    std::uint64_t *data = a.data();
    ArenaBuffer<std::uint64_t> b(std::move(a));
    EXPECT_EQ(b.data(), data);
    EXPECT_EQ(b[0], 99u);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_TRUE(a.empty());
    a = std::move(b);
    EXPECT_EQ(a.data(), data);
}

} // namespace
} // namespace stms
