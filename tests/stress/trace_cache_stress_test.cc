/**
 * @file
 * Race-stress for driver::TraceCache (tests/stress, label "tsan").
 *
 * Many threads race the first acquire of one key: exactly one may
 * generate, and every other thread must wait for it and see the same
 * trace bytes. Releases race acquires: a Handle keeps its trace
 * through any release, and a regenerated trace is the same bytes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "driver/trace_cache.hh"

namespace stms::driver
{
namespace
{

/** Cheap digest of a trace's record stream (the first lane is
 *  enough to tell two generations apart). */
std::uint64_t
laneDigest(const Trace &trace)
{
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto &lane = trace.perCore.at(0);
    for (std::size_t i = 0; i < lane.size(); i += 7) {
        digest ^= lane[i].addr + i;
        digest *= 0x100000001b3ULL;
    }
    return digest ^ lane.size();
}

TEST(TraceCacheStress, ConcurrentFirstAcquireGeneratesOnce)
{
    // All threads race the *first* acquire of the same key: exactly
    // one generation may happen; everyone else blocks on the
    // placeholder and gets the same entry.
    for (int round = 0; round < 8; ++round) {
        TraceCache cache;
        std::atomic<std::uint64_t> digest{0};
        std::atomic<const Trace *> instance{nullptr};
        std::vector<std::thread> workers;
        workers.reserve(4);
        for (int t = 0; t < 4; ++t) {
            workers.emplace_back([&] {
                TraceCache::Handle handle =
                    cache.acquire("oltp-db2", 96);
                const std::uint64_t mine =
                    laneDigest(handle.trace());
                std::uint64_t expected = 0;
                if (!digest.compare_exchange_strong(expected, mine)) {
                    EXPECT_EQ(mine, expected);
                }
                const Trace *first = nullptr;
                if (!instance.compare_exchange_strong(
                        first, &handle.trace())) {
                    EXPECT_EQ(&handle.trace(), first);
                }
            });
        }
        for (auto &thread : workers)
            thread.join();
        EXPECT_EQ(cache.generations(), 1u);
    }
}

TEST(TraceCacheStress, ReleaseRacesAcquireOfOtherKeys)
{
    // Thread t works on key (t + round) % 4: it acquires the key,
    // holds it across its own release, and acquires it again, while
    // the other threads do the same to the other keys (and, as they
    // drift apart, to this one).
    const std::vector<std::string> keys = {"oltp-db2", "web-apache",
                                           "dss-db2", "sci-em3d"};
    constexpr std::uint64_t kRecords = 96;
    std::vector<std::uint64_t> reference;
    {
        TraceCache serial;
        for (const std::string &key : keys)
            reference.push_back(
                laneDigest(serial.acquire(key, kRecords).trace()));
    }

    TraceCache cache;
    std::vector<std::thread> workers;
    workers.reserve(4);
    for (std::size_t t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t round = 0; round < 32; ++round) {
                const std::size_t k = (t + round) % keys.size();
                const TraceCache::Handle held =
                    cache.acquire(keys[k], kRecords);
                cache.release(keys[k], kRecords);
                const TraceCache::Handle again =
                    cache.acquire(keys[k], kRecords);
                EXPECT_EQ(laneDigest(held.trace()), reference[k]);
                EXPECT_EQ(laneDigest(again.trace()), reference[k]);
            }
        });
    }
    for (auto &thread : workers)
        thread.join();
    // Each round generates at most twice.
    EXPECT_GE(cache.generations(), keys.size());
    EXPECT_LE(cache.generations(), 4u * 32u * 2u);
}

} // namespace
} // namespace stms::driver
