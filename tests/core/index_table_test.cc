/** @file Unit tests for the bucketized hash index table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"
#include "core/index_table.hh"

namespace stms
{
namespace
{

TEST(HistoryPointer, PackUnpackRoundTrip)
{
    for (CoreId core : {0u, 1u, 3u, 255u}) {
        for (SeqNum seq : {SeqNum{0}, SeqNum{12345},
                           (SeqNum{1} << 47) + 99}) {
            HistoryPointer original{core, seq};
            HistoryPointer copy =
                HistoryPointer::unpack(original.packed());
            EXPECT_EQ(copy.core, core);
            EXPECT_EQ(copy.seq, seq);
        }
    }
}

TEST(HistoryPointer, PackedMasksSeqAtThe48BitBoundary)
{
    // Regression: packed() used to OR seq unmasked into the low 48
    // bits, so a seq >= 2^48 silently corrupted the core field.
    const SeqNum boundary = HistoryPointer::kSeqMask;  // 2^48 - 1.
    HistoryPointer original{0xabcd, boundary};
    const HistoryPointer copy =
        HistoryPointer::unpack(original.packed());
    EXPECT_EQ(copy.core, 0xabcdu);
    EXPECT_EQ(copy.seq, boundary);
}

TEST(HistoryPointerDeathTest, PackedOverflowPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    HistoryPointer overflow{3, SeqNum{1} << HistoryPointer::kSeqBits};
    EXPECT_DEATH((void)overflow.packed(), "overflows");
}

TEST(IndexTable, BoundedAndUnboundedAgreeOnSubBlockOffsets)
{
    // Regression: bounded mode hashed blockNumber(block) but tagged
    // the raw byte address, while unbounded mode keyed the raw
    // address — two addresses inside one cache block aliased
    // differently between the modes. Both now key by block number.
    IndexTable bounded(1 << 16);
    IndexTable unbounded(0);
    const Addr base = blockAddress(777);
    for (IndexTable *table : {&bounded, &unbounded}) {
        table->update(base + 7, HistoryPointer{0, 42});
        // Any byte inside the block names the same miss stream.
        auto hit = table->lookup(base + 13);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->seq, 42u);
        // The neighboring block stays a distinct key.
        EXPECT_FALSE(table->lookup(base + kBlockBytes).has_value());
        EXPECT_EQ(table->occupancy(), 1u);
    }
}

TEST(IndexTable, LiveOccupancyMatchesScanUnderChurn)
{
    // Regression: occupancy() was an O(buckets x entries) scan that
    // benches polled per interval; it is now a live counter, with the
    // scan kept as this cross-check.
    IndexTable table(1 << 10, 4);  // 16 buckets: plenty of eviction.
    for (Addr i = 0; i < 2000; ++i) {
        table.update(blockAddress(i % 300), HistoryPointer{0, i});
        if (i % 3 == 0)
            table.lookup(blockAddress(i % 150));
        if (i % 97 == 0) {
            EXPECT_EQ(table.occupancy(), table.occupancyScan());
        }
    }
    EXPECT_EQ(table.occupancy(), table.occupancyScan());
    EXPECT_GT(table.stats().replacements, 0u);
}

TEST(IndexTable, HitReshufflePreservesRelativeOrderOfUntouched)
{
    // One bucket, four slots. After touching B, the untouched pairs
    // must keep their relative age (A still oldest, then C, then D),
    // so evictions under pressure come out A first, then C.
    IndexTable table(kBlockBytes, 4);
    for (Addr i = 1; i <= 4; ++i)  // A=1 B=2 C=3 D=4; MRU: D,C,B,A.
        table.update(blockAddress(i), HistoryPointer{0, i});
    EXPECT_TRUE(table.lookup(blockAddress(2)).has_value());  // B MRU.
    table.update(blockAddress(5), HistoryPointer{0, 5});  // Evicts A.
    EXPECT_FALSE(table.lookup(blockAddress(1)).has_value());
    table.update(blockAddress(6), HistoryPointer{0, 6});  // Evicts C.
    EXPECT_FALSE(table.lookup(blockAddress(3)).has_value());
    for (Addr i : {Addr{2}, Addr{4}, Addr{5}, Addr{6}})
        EXPECT_TRUE(table.lookup(blockAddress(i)).has_value()) << i;
}

TEST(IndexTable, UpdateRefreshMovesToMruWithoutOccupancyChange)
{
    IndexTable table(kBlockBytes, 3);
    for (Addr i = 1; i <= 3; ++i)  // MRU order: 3,2,1.
        table.update(blockAddress(i), HistoryPointer{0, i});
    EXPECT_EQ(table.occupancy(), 3u);
    table.update(blockAddress(1), HistoryPointer{0, 99});  // Refresh.
    EXPECT_EQ(table.occupancy(), 3u);
    EXPECT_EQ(table.stats().inserts, 3u);
    EXPECT_EQ(table.stats().replacements, 0u);
    // 1 is now MRU (order 1,3,2): the next insert evicts 2, not 1.
    table.update(blockAddress(4), HistoryPointer{0, 4});
    EXPECT_FALSE(table.lookup(blockAddress(2)).has_value());
    auto refreshed = table.lookup(blockAddress(1));
    ASSERT_TRUE(refreshed.has_value());
    EXPECT_EQ(refreshed->seq, 99u);
    EXPECT_EQ(table.occupancy(), 3u);
}

TEST(IndexTable, UpdateThenLookup)
{
    IndexTable table(1 << 20);
    table.update(blockAddress(42), HistoryPointer{1, 7});
    auto pointer = table.lookup(blockAddress(42));
    ASSERT_TRUE(pointer.has_value());
    EXPECT_EQ(pointer->core, 1u);
    EXPECT_EQ(pointer->seq, 7u);
    EXPECT_FALSE(table.lookup(blockAddress(43)).has_value());
}

TEST(IndexTable, UpdateRefreshesPointer)
{
    IndexTable table(1 << 20);
    table.update(blockAddress(42), HistoryPointer{0, 1});
    table.update(blockAddress(42), HistoryPointer{0, 99});
    auto pointer = table.lookup(blockAddress(42));
    ASSERT_TRUE(pointer.has_value());
    EXPECT_EQ(pointer->seq, 99u);
    EXPECT_EQ(table.occupancy(), 1u);
}

TEST(IndexTable, BucketLruEvictsOldest)
{
    // One bucket only: every address collides.
    IndexTable table(kBlockBytes, /*entries_per_bucket=*/4);
    EXPECT_EQ(table.numBuckets(), 1u);
    for (Addr i = 0; i < 5; ++i)
        table.update(blockAddress(i), HistoryPointer{0, i});
    // The first-inserted (LRU) pair must be gone; the rest remain.
    EXPECT_FALSE(table.lookup(blockAddress(0)).has_value());
    for (Addr i = 1; i < 5; ++i)
        EXPECT_TRUE(table.lookup(blockAddress(i)).has_value());
    EXPECT_EQ(table.stats().replacements, 1u);
}

TEST(IndexTable, LookupRefreshesLru)
{
    IndexTable table(kBlockBytes, 2);
    table.update(blockAddress(1), HistoryPointer{0, 1});
    table.update(blockAddress(2), HistoryPointer{0, 2});
    // Touch 1 so 2 becomes LRU, then insert 3.
    EXPECT_TRUE(table.lookup(blockAddress(1)).has_value());
    table.update(blockAddress(3), HistoryPointer{0, 3});
    EXPECT_TRUE(table.lookup(blockAddress(1)).has_value());
    EXPECT_FALSE(table.lookup(blockAddress(2)).has_value());
}

TEST(IndexTable, UnboundedNeverEvicts)
{
    IndexTable table(0);
    EXPECT_TRUE(table.unbounded());
    for (Addr i = 0; i < 100000; ++i)
        table.update(blockAddress(i), HistoryPointer{0, i});
    EXPECT_EQ(table.occupancy(), 100000u);
    for (Addr i : {Addr{0}, Addr{50000}, Addr{99999}})
        EXPECT_TRUE(table.lookup(blockAddress(i)).has_value());
}

TEST(IndexTable, StatsCountHitsAndMisses)
{
    IndexTable table(1 << 16);
    table.update(blockAddress(5), HistoryPointer{0, 5});
    table.lookup(blockAddress(5));
    table.lookup(blockAddress(6));
    EXPECT_EQ(table.stats().lookups, 2u);
    EXPECT_EQ(table.stats().lookupHits, 1u);
    EXPECT_EQ(table.stats().updates, 1u);
    EXPECT_EQ(table.stats().inserts, 1u);
    table.resetStats();
    EXPECT_EQ(table.stats().lookups, 0u);
}

TEST(IndexTable, FootprintMatchesConfiguredBytes)
{
    IndexTable table(16ULL << 20);
    EXPECT_EQ(table.footprintBytes(), 16ULL << 20);
    EXPECT_EQ(table.numBuckets(), (16ULL << 20) / kBlockBytes);
}

TEST(IndexTable, HashSpreadsAcrossBuckets)
{
    IndexTable table(1 << 16, 12);  // 1024 buckets.
    std::vector<std::uint64_t> used;
    for (Addr i = 0; i < 512; ++i)
        used.push_back(table.bucketOf(blockAddress(i * 64)));
    std::sort(used.begin(), used.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(used.begin(), used.end()) - used.begin());
    // 512 balls into 1024 bins: expect ~400+ distinct bins.
    EXPECT_GT(distinct, 350u);
}

TEST(IndexTable, FullLoadKeepsHitRateForHotSet)
{
    // In-bucket LRU should retain a recently re-touched working set
    // even under heavy insertion pressure (Sec. 5.3).
    IndexTable table(1 << 14, 12);
    std::vector<Addr> hot;
    for (Addr i = 0; i < 64; ++i)
        hot.push_back(blockAddress(1000000 + i));
    for (int round = 0; round < 50; ++round) {
        for (Addr addr : hot) {
            table.update(addr, HistoryPointer{0, 1});
            table.lookup(addr);
        }
        for (Addr i = 0; i < 200; ++i) {
            table.update(
                blockAddress(static_cast<Addr>(round) * 1000 + i),
                HistoryPointer{0, 2});
        }
    }
    int hits = 0;
    for (Addr addr : hot)
        hits += table.lookup(addr).has_value() ? 1 : 0;
    EXPECT_GT(hits, 48);  // >75% of the hot set survives.
}

/** Fill @p table with a deterministic update mix, then probe it;
 *  returns the probed blocks. Sub-block offsets exercise key
 *  normalization. */
std::vector<Addr>
churn(IndexTable &table)
{
    std::vector<Addr> probes;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        table.update(blockAddress(mixHash64(i) % 1024) + (i % 64),
                     HistoryPointer{static_cast<CoreId>(i % 4), i});
        probes.push_back(blockAddress(mixHash64(i / 2) % 1024) +
                         (i % 32));
    }
    for (const Addr block : probes)
        table.lookup(block);
    return probes;
}

TEST(IndexTable, PrefetchBatchIsArchitecturallyInert)
{
    // prefetchBatch is the onAccessHint warm-up: a host-cache hint
    // that must leave stats, occupancy and LRU order untouched.
    IndexTable table(1 << 16, 12);
    const std::vector<Addr> probes = churn(table);
    const IndexTableStats before = table.stats();
    const std::uint64_t pairs = table.occupancy();

    table.prefetchBatch(probes);

    EXPECT_TRUE(table.stats() == before);
    EXPECT_EQ(table.occupancy(), pairs);
    // LRU order untouched: the same probes still hit identically.
    IndexTable replay(1 << 16, 12);
    churn(replay);
    for (const Addr block : probes) {
        const auto got = table.lookup(block);
        const auto expect = replay.lookup(block);
        ASSERT_EQ(got.has_value(), expect.has_value());
        if (got) {
            EXPECT_EQ(got->seq, expect->seq);
        }
    }
}

TEST(IndexTable, PrefetchBatchAcceptsEmptyInput)
{
    for (const std::uint64_t bytes : {std::uint64_t{1} << 14,
                                      std::uint64_t{0}}) {
        IndexTable table(bytes, 12);
        table.prefetchBatch({});
        EXPECT_TRUE(table.stats() == IndexTableStats{});
        EXPECT_EQ(table.occupancy(), 0u);
    }
}

/**
 * Reference model of the bounded table: one std::deque per bucket,
 * MRU at the front. A hit or refresh moves its pair to the front; an
 * insert into a full bucket drops the back.
 */
class DequeLruIndex
{
  public:
    DequeLruIndex(std::uint64_t buckets, std::uint32_t entries)
        : entries_(entries), buckets_(buckets)
    {}

    std::optional<HistoryPointer>
    lookup(Addr block)
    {
        ++stats.lookups;
        auto &bucket = bucketFor(block);
        const auto it = find(bucket, blockNumber(block));
        if (it == bucket.end())
            return std::nullopt;
        ++stats.lookupHits;
        const auto pair = *it;
        bucket.erase(it);
        bucket.push_front(pair);
        return HistoryPointer::unpack(pair.second);
    }

    void
    update(Addr block, HistoryPointer pointer)
    {
        ++stats.updates;
        auto &bucket = bucketFor(block);
        const Addr key = blockNumber(block);
        const auto it = find(bucket, key);
        if (it != bucket.end()) {
            bucket.erase(it);
        } else if (bucket.size() < entries_) {
            ++stats.inserts;
        } else {
            bucket.pop_back();
            ++stats.replacements;
        }
        bucket.push_front({key, pointer.packed()});
    }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t total = 0;
        for (const auto &bucket : buckets_)
            total += bucket.size();
        return total;
    }

    IndexTableStats stats;

  private:
    using Bucket = std::deque<std::pair<Addr, std::uint64_t>>;

    Bucket &
    bucketFor(Addr block)
    {
        return buckets_[hashToBucket(blockNumber(block), buckets_.size())];
    }

    static Bucket::iterator
    find(Bucket &bucket, Addr key)
    {
        return std::find_if(bucket.begin(), bucket.end(),
                            [key](const auto &pair) {
                                return pair.first == key;
                            });
    }

    std::uint32_t entries_;
    std::vector<Bucket> buckets_;
};

TEST(IndexTable, BoundedModeMatchesDequeLruReference)
{
    constexpr std::uint64_t kBuckets = 4;
    for (const std::uint32_t entries : {1u, 3u, 12u}) {
        SCOPED_TRACE(::testing::Message() << entries << " entries");
        IndexTable table(kBuckets * kBlockBytes, entries);
        ASSERT_EQ(table.numBuckets(), kBuckets);
        DequeLruIndex reference(kBuckets, entries);
        Rng rng(entries);
        // Twice the table's capacity in distinct blocks: keys collide
        // in every bucket and LRU displacement is constant.
        const std::uint64_t pool = 2 * kBuckets * entries;
        for (std::uint64_t op = 0; op < 20000; ++op) {
            const Addr block =
                blockAddress(rng.below(pool)) + rng.below(kBlockBytes);
            if (rng.chance(0.5)) {
                const auto got = table.lookup(block);
                const auto want = reference.lookup(block);
                ASSERT_EQ(got.has_value(), want.has_value()) << op;
                if (got) {
                    ASSERT_EQ(got->core, want->core) << op;
                    ASSERT_EQ(got->seq, want->seq) << op;
                }
            } else {
                const HistoryPointer pointer{
                    static_cast<CoreId>(rng.below(4)), op};
                table.update(block, pointer);
                reference.update(block, pointer);
            }
            ASSERT_TRUE(table.stats() == reference.stats) << op;
            ASSERT_EQ(table.occupancy(), reference.occupancy()) << op;
            ASSERT_EQ(table.occupancy(), table.occupancyScan()) << op;
        }
        EXPECT_GT(table.stats().replacements, 0u);
        EXPECT_GT(table.stats().lookupHits, 0u);
    }
}

TEST(BucketStore, StorageSlotsAreClaimedByFirstUpdateOnly)
{
    detail::BucketStore store;
    store.reset(1024, 12);
    // Lookups of never-written buckets miss and claim nothing.
    for (std::uint64_t bucket = 0; bucket < 1024; ++bucket)
        EXPECT_FALSE(store.lookup(bucket, bucket).has_value());
    EXPECT_EQ(store.slotsUsed(), 0u);
    EXPECT_EQ(store.occupancyScan(), 0u);

    // 500 updates spread over k = 7 distinct buckets, 40 keys apiece
    // (so buckets also overflow and displace): exactly k slots.
    const std::uint64_t buckets[] = {3, 1023, 0, 512, 64, 65, 700};
    for (std::uint64_t i = 0; i < 500; ++i)
        store.update(buckets[i % 7], i % 280, i);
    EXPECT_EQ(store.slotsUsed(), 7u);
    EXPECT_EQ(store.occupancyScan(), 7u * 12u);
    // Each bucket holds its own most recent keys, in its own slot.
    for (std::uint64_t i = 500 - 7 * 12; i < 500; ++i) {
        const auto hit = store.lookup(buckets[i % 7], i % 280);
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(*hit, i);
    }
    EXPECT_FALSE(store.lookup(5, 3).has_value());
    EXPECT_EQ(store.slotsUsed(), 7u);
}

} // namespace
} // namespace stms
