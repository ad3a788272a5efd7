/** @file Unit tests for the STMS prefetcher driven through a scripted
 *  port (no simulator in the loop). */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/stms.hh"

namespace stms
{
namespace
{

/** Scripted environment: records prefetches, optionally delays
 *  meta-data completions until released. */
class ScriptedPort : public PrefetchPort
{
  public:
    IssueResult
    issuePrefetch(Prefetcher &, CoreId, Addr block) override
    {
        issued.push_back(block);
        return IssueResult::Issued;
    }

    void
    metaRequest(TrafficClass cls, Addr, std::uint32_t blocks,
                TimedCallback done) override
    {
        metaBlocks[static_cast<std::size_t>(cls)] += blocks;
        ++metaRequests;
        if (!done)
            return;
        if (delayMeta)
            pending.push_back(std::move(done));
        else
            done(now_);
    }

    Cycle now() const override { return now_; }
    std::uint32_t prefetchRoom(const Prefetcher &,
                               CoreId) const override
    {
        return room;
    }

    /** Complete the oldest delayed meta request. */
    void
    releaseOne()
    {
        ASSERT_FALSE(pending.empty());
        auto done = std::move(pending.front());
        pending.pop_front();
        done(now_);
    }

    std::vector<Addr> issued;
    std::array<std::uint64_t, kNumTrafficClasses> metaBlocks{};
    std::uint64_t metaRequests = 0;
    std::deque<TimedCallback> pending;
    bool delayMeta = false;
    std::uint32_t room = 16;
    Cycle now_ = 0;
};

StmsConfig
unitConfig()
{
    StmsConfig config;
    config.samplingProbability = 1.0;  // Deterministic updates.
    config.historyEntriesPerCore = 1024;
    config.indexBytes = 1 << 16;
    config.streamsPerCore = 2;
    return config;
}

/** Feed a miss sequence (uncovered misses). */
void
misses(StmsPrefetcher &stms, std::initializer_list<Addr> blocks,
       CoreId core = 0)
{
    for (Addr block : blocks)
        stms.onOffchipRead(core, blockAddress(block));
}

TEST(Stms, RecurringSequenceGetsStreamed)
{
    ScriptedPort port;
    StmsPrefetcher stms(unitConfig());
    stms.attach(port, 1, 0);

    misses(stms, {1, 2, 3, 4, 5});       // First occurrence: learn.
    port.issued.clear();
    misses(stms, {1});                    // Recurrence: trigger.
    // The stream engine must prefetch the successors of 1.
    ASSERT_GE(port.issued.size(), 4u);
    EXPECT_EQ(port.issued[0], blockAddress(2));
    EXPECT_EQ(port.issued[1], blockAddress(3));
    EXPECT_EQ(stms.stats().lookupHits, 1u);
    EXPECT_EQ(stms.stats().streamsStarted, 1u);
}

TEST(Stms, ConsumptionPumpsFurtherPrefetches)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.rampBase = 2;
    config.rampStep = 1;
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);

    Addr first[12];
    for (Addr i = 0; i < 12; ++i)
        first[i] = i + 1;
    misses(stms, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    port.issued.clear();
    misses(stms, {1});
    const std::size_t initial = port.issued.size();
    EXPECT_LE(initial, 2u);  // Ramp limits the fresh stream.
    // Consume a prefetched block: window widens, more issue.
    stms.onPrefetchUsed(0, blockAddress(2), false);
    EXPECT_GT(port.issued.size(), initial);
    EXPECT_GT(stms.stats().consumed, 0u);
    (void)first;
}

TEST(Stms, SamplingZeroNeverIndexes)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.samplingProbability = 0.0;
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);
    misses(stms, {1, 2, 3, 1, 2, 3, 1, 2, 3});
    EXPECT_EQ(stms.stats().lookupHits, 0u);
    EXPECT_TRUE(port.issued.empty());
    EXPECT_EQ(stms.indexTable().occupancy(), 0u);
}

TEST(Stms, OffchipLookupCostsOneBlockReadEach)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.bucketBufferBuckets = 1;  // Effectively no buffering.
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);
    misses(stms, {10, 20, 30});
    // Each miss looked up the index: >= 3 MetaLookup block reads
    // (bucket reads; history reads would add more on hits).
    EXPECT_GE(port.metaBlocks[static_cast<std::size_t>(
                  TrafficClass::MetaLookup)],
              3u);
}

TEST(Stms, IdealModeGeneratesNoMetaTraffic)
{
    ScriptedPort port;
    StmsPrefetcher stms(makeIdealTmsConfig());
    stms.attach(port, 1, 0);
    misses(stms, {1, 2, 3, 4, 1, 2, 3, 4});
    EXPECT_EQ(port.metaRequests, 0u);
    EXPECT_FALSE(port.issued.empty());  // Still prefetches data.
}

TEST(Stms, HistoryRecordTrafficIsPacked)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.samplingProbability = 0.0;  // Isolate record traffic.
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);
    for (Addr i = 0; i < 120; ++i)
        stms.onOffchipRead(0, blockAddress(1000 + i));
    // One block write per 12 logged misses.
    EXPECT_EQ(port.metaBlocks[static_cast<std::size_t>(
                  TrafficClass::MetaRecord)],
              10u);
}

TEST(Stms, LookupLatencyDelaysStreamStart)
{
    ScriptedPort port;
    port.delayMeta = true;
    StmsConfig config = unitConfig();
    config.bucketBufferBuckets = 1;
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);

    misses(stms, {1, 2, 3, 4});
    // Drain the learning misses' lookups so the pipe is free.
    while (!port.pending.empty())
        port.releaseOne();
    port.issued.clear();
    misses(stms, {1});
    EXPECT_TRUE(port.issued.empty());  // Bucket read in flight.
    // Release the bucket read, then the history read.
    while (!port.pending.empty())
        port.releaseOne();
    EXPECT_FALSE(port.issued.empty());
}

TEST(Stms, CrossCoreStreamLocatedThroughSharedIndex)
{
    ScriptedPort port;
    StmsPrefetcher stms(unitConfig());
    stms.attach(port, 2, 0);
    // Core 0 records the sequence.
    misses(stms, {1, 2, 3, 4, 5}, /*core=*/0);
    port.issued.clear();
    // Core 1 misses on the same trigger: the shared index table must
    // locate core 0's history and stream it to core 1.
    misses(stms, {1}, /*core=*/1);
    ASSERT_GE(port.issued.size(), 2u);
    EXPECT_EQ(port.issued[0], blockAddress(2));
}

TEST(Stms, KillViaUnusedStreakWritesEndMark)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.killThreshold = 2;
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);

    misses(stms, {1, 2, 3, 4, 5, 6});
    port.issued.clear();
    misses(stms, {1});                 // Stream starts: issues 2,3,...
    stms.onPrefetchUsed(0, blockAddress(2), false);
    // Kill the stream via two unused evictions -> end mark after 2.
    stms.onPrefetchUnused(0, blockAddress(3));
    stms.onPrefetchUnused(0, blockAddress(4));
    EXPECT_GE(stms.stats().endMarksWritten, 1u);
    EXPECT_GE(stms.stats().streamsEnded, 1u);
    // The annotation sits on the entry after the last consumed one.
    EXPECT_TRUE(stms.historyBuffer(0).at(2).endMark);
}

TEST(Stms, EndMarkPausesAndExplicitRequestResumes)
{
    ScriptedPort port;
    StmsPrefetcher stms(unitConfig());
    stms.attach(port, 1, 0);

    misses(stms, {1, 2, 3, 4, 5, 6});
    // Annotate the entry holding block 3 (seq 2) as a stream end.
    ASSERT_TRUE(stms.historyBufferMutable(0).setEndMark(2));

    port.issued.clear();
    misses(stms, {1});  // Lookup precedes logging: points at seq 0.
    // The engine prefetches 2 and pauses at the annotated entry (3).
    EXPECT_GE(stms.stats().pauses, 1u);
    ASSERT_EQ(port.issued.size(), 1u);
    EXPECT_EQ(port.issued[0], blockAddress(2));

    // Explicitly demanding the annotated address resumes streaming.
    misses(stms, {3});
    EXPECT_GE(stms.stats().resumes, 1u);
    EXPECT_GE(port.issued.size(), 3u);  // 4, 5, ... follow.
}

TEST(Stms, StaleIndexPointerDetected)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.historyEntriesPerCore = 8;  // Tiny retention.
    StmsPrefetcher stms(config);
    stms.attach(port, 1, 0);
    misses(stms, {1, 2, 3});
    // Push the trigger's entry out of the retention window.
    for (Addr i = 0; i < 16; ++i)
        stms.onOffchipRead(0, blockAddress(100 + i));
    port.issued.clear();
    misses(stms, {1});
    EXPECT_GE(stms.stats().stalePointers, 1u);
}

TEST(Stms, SharedHistoryAblationUsesOneBuffer)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.sharedHistory = true;
    StmsPrefetcher stms(config);
    stms.attach(port, 4, 0);
    misses(stms, {1, 2}, 0);
    misses(stms, {3, 4}, 3);
    // All four appends landed in the single shared buffer.
    EXPECT_EQ(stms.historyBuffer(0).head(), 4u);
    EXPECT_EQ(stms.historyBuffer(3).head(), 4u);
}

TEST(Stms, MetaFootprintCountsIndexAndHistory)
{
    ScriptedPort port;
    StmsConfig config = unitConfig();
    config.indexBytes = 1 << 16;
    config.historyEntriesPerCore = 1200;
    StmsPrefetcher stms(config);
    stms.attach(port, 2, 0);
    // index + 2 cores x ceil(1200/12) blocks.
    EXPECT_EQ(stms.metaFootprintBytes(),
              (1ULL << 16) + 2 * 100 * kBlockBytes);
}

TEST(Stms, ResetStatsPreservesLearnedState)
{
    ScriptedPort port;
    StmsPrefetcher stms(unitConfig());
    stms.attach(port, 1, 0);
    misses(stms, {1, 2, 3, 4});
    stms.resetStats();
    EXPECT_EQ(stms.stats().logged, 0u);
    port.issued.clear();
    misses(stms, {1});  // Learned index survives the reset.
    EXPECT_FALSE(port.issued.empty());
}

} // namespace
} // namespace stms
