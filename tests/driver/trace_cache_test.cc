/** @file Tests of the generate-once TraceCache and its release(). */

#include <gtest/gtest.h>

#include "driver/trace_cache.hh"

namespace stms::driver
{
namespace
{

constexpr std::uint64_t kRecords = 2048;

/** Every lane holds the same records, field for field. */
bool
sameRecords(const Trace &a, const Trace &b)
{
    if (a.perCore.size() != b.perCore.size())
        return false;
    for (std::size_t core = 0; core < a.perCore.size(); ++core) {
        const auto &x = a.perCore[core];
        const auto &y = b.perCore[core];
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (x[i].addr != y[i].addr || x[i].think != y[i].think ||
                x[i].flags != y[i].flags)
                return false;
        }
    }
    return true;
}

TEST(TraceCache, AcquireGeneratesOnce)
{
    TraceCache cache;
    TraceCache::Handle first = cache.acquire("oltp-db2", kRecords);
    TraceCache::Handle second = cache.acquire("oltp-db2", kRecords);
    EXPECT_EQ(&first.trace(), &second.trace());
    EXPECT_EQ(cache.generations(), 1u);
    EXPECT_EQ(first.trace().name, "oltp-db2");
}

TEST(TraceCache, ReleaseKeepsLiveHandlesAndRegenerates)
{
    TraceCache cache;
    const TraceCache::Handle held = cache.acquire("oltp-db2", kRecords);
    const Trace *address = &held.trace();
    const Trace copy = held.trace();

    cache.release("oltp-db2", kRecords);
    // The cache dropped its reference, not the Handle's.
    EXPECT_EQ(&held.trace(), address);
    EXPECT_TRUE(sameRecords(held.trace(), copy));
    EXPECT_EQ(cache.generations(), 1u);

    const TraceCache::Handle again = cache.acquire("oltp-db2", kRecords);
    EXPECT_EQ(cache.generations(), 2u);
    EXPECT_NE(&again.trace(), address);
    EXPECT_TRUE(sameRecords(again.trace(), copy));

    // Releasing a key the cache does not hold changes nothing.
    cache.release("web-apache", kRecords);
    EXPECT_EQ(&cache.acquire("oltp-db2", kRecords).trace(),
              &again.trace());
    EXPECT_EQ(cache.generations(), 2u);
}

} // namespace
} // namespace stms::driver
