/** @file Tests of the generate-once TraceCache. */

#include <gtest/gtest.h>

#include "driver/trace_cache.hh"

namespace stms::driver
{
namespace
{

constexpr std::uint64_t kRecords = 2048;

TEST(TraceCache, AcquireGeneratesOnce)
{
    TraceCache cache;
    TraceCache::Handle first = cache.acquire("oltp-db2", kRecords);
    TraceCache::Handle second = cache.acquire("oltp-db2", kRecords);
    EXPECT_EQ(&first.trace(), &second.trace());
    EXPECT_EQ(cache.generations(), 1u);
    EXPECT_EQ(first.trace().name, "oltp-db2");
}

} // namespace
} // namespace stms::driver
