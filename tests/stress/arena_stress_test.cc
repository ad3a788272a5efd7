/**
 * @file
 * Race-stress for the per-run arena (tests/stress, label "tsan").
 *
 * The arena's thread-safety story is isolation, not locking: each
 * worker thread owns a private ScopedRunArena (run.cc installs one per
 * runTrace call), so arenas never need atomics — TSan proves the
 * isolation holds: N threads concurrently allocate, reset, and
 * re-allocate through their own run arenas, and any accidental
 * sharing of the "current arena" TLS or of block storage is a data
 * race TSan flags.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/arena.hh"

namespace stms
{
namespace
{

TEST(ArenaStress, PerThreadRunArenasAreIsolated)
{
    constexpr int kThreads = 4;
    constexpr int kRunsPerThread = 50;
    constexpr int kAllocsPerRun = 200;

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            void *first_run_base = nullptr;
            for (int run = 0; run < kRunsPerThread; ++run) {
                ScopedRunArena scope;
                Arena *arena = currentArena();
                ASSERT_NE(arena, nullptr);
                void *base = nullptr;
                for (int i = 0; i < kAllocsPerRun; ++i) {
                    auto *slot = static_cast<std::uint64_t *>(
                        arena->allocate(sizeof(std::uint64_t) * 8, 8));
                    if (i == 0)
                        base = slot;
                    // Unsynchronized writes: racy only if arenas leak
                    // across threads.
                    slot[0] = static_cast<std::uint64_t>(t);
                    slot[7] = static_cast<std::uint64_t>(run);
                }
                if (run == 0)
                    first_run_base = base;
                else  // deterministic reuse holds per thread too
                    ASSERT_EQ(base, first_run_base);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
}

} // namespace
} // namespace stms
