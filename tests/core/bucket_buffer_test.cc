/** @file Unit tests for the on-chip bucket buffer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/hash.hh"
#include "common/rng.hh"
#include "core/bucket_buffer.hh"

namespace stms
{
namespace
{

TEST(BucketBuffer, ProbeMissThenInsertThenHit)
{
    BucketBuffer buffer(4);
    EXPECT_FALSE(buffer.probe(7, false));
    EXPECT_FALSE(buffer.insert(7, false));
    EXPECT_TRUE(buffer.probe(7, false));
    EXPECT_EQ(buffer.stats().hits, 1u);
    EXPECT_EQ(buffer.stats().misses, 1u);
}

TEST(BucketBuffer, CleanEvictionNeedsNoWriteback)
{
    BucketBuffer buffer(2);
    buffer.insert(1, false);
    buffer.insert(2, false);
    EXPECT_FALSE(buffer.insert(3, false));  // Evicts 1.
    EXPECT_FALSE(buffer.probe(1, false));
    EXPECT_EQ(buffer.stats().writebacks, 0u);
}

TEST(BucketBuffer, DirtyEvictionSignalsWriteback)
{
    BucketBuffer buffer(2);
    buffer.insert(1, false);
    EXPECT_TRUE(buffer.probe(1, true));  // Update applied on chip.
    buffer.insert(2, true);
    // Evicts dirty bucket 1, then bucket 2, inserted dirty.
    EXPECT_EQ(buffer.insert(3, false), (BucketWriteback{1, true}));
    EXPECT_EQ(buffer.insert(4, false), (BucketWriteback{2, true}));
    EXPECT_EQ(buffer.stats().writebacks, 2u);
}

TEST(BucketBuffer, ProbeRefreshesLru)
{
    BucketBuffer buffer(2);
    buffer.insert(1, false);
    buffer.insert(2, false);
    EXPECT_TRUE(buffer.probe(1, false));  // 2 becomes LRU.
    buffer.insert(3, false);
    EXPECT_TRUE(buffer.probe(1, false));
    EXPECT_FALSE(buffer.probe(2, false));
}

TEST(BucketBuffer, DuplicateInsertKeepsDirtiness)
{
    BucketBuffer buffer(2);
    buffer.insert(5, true);
    // Re-insert must not lose the dirty bit.
    EXPECT_FALSE(buffer.insert(5, false));
    buffer.insert(6, false);
    EXPECT_EQ(buffer.insert(7, false), (BucketWriteback{5, true}));
}

TEST(BucketBuffer, SizeBounded)
{
    BucketBuffer buffer(3);
    for (std::uint64_t b = 0; b < 10; ++b)
        buffer.insert(b, false);
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.capacity(), 3u);
}

/**
 * Reference model: the std::list + std::unordered_map LRU the node
 * pool replaced, with the dirty bit set the way StmsPrefetcher set it,
 * by a markDirty() after the probe or insert.
 */
class ListLruBuffer
{
  public:
    explicit ListLruBuffer(std::uint32_t capacity) : capacity_(capacity) {}

    bool
    probe(std::uint64_t bucket, bool dirty)
    {
        auto it = index_.find(bucket);
        if (it == index_.end()) {
            ++stats.misses;
            return false;
        }
        ++stats.hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        if (dirty)
            markDirty(bucket);
        return true;
    }

    BucketWriteback
    insert(std::uint64_t bucket, bool dirty)
    {
        BucketWriteback writeback;
        auto it = index_.find(bucket);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
        } else {
            if (lru_.size() >= capacity_) {
                const Node victim = lru_.back();
                lru_.pop_back();
                index_.erase(victim.bucket);
                if (victim.dirty) {
                    writeback = {victim.bucket, true};
                    ++stats.writebacks;
                }
            }
            lru_.push_front(Node{bucket, false});
            index_[bucket] = lru_.begin();
        }
        if (dirty)
            markDirty(bucket);
        return writeback;
    }

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(lru_.size());
    }

    BucketBufferStats stats;

  private:
    struct Node
    {
        std::uint64_t bucket;
        bool dirty;
    };

    void
    markDirty(std::uint64_t bucket)
    {
        auto it = index_.find(bucket);
        if (it != index_.end())
            it->second->dirty = true;
    }

    std::uint32_t capacity_;
    std::list<Node> lru_;  ///< MRU at front.
    std::unordered_map<std::uint64_t, std::list<Node>::iterator> index_;
};

enum class Keys
{
    Dense,    ///< Small integers 0..range-1.
    Hashed,   ///< hashToBucket() outputs, as IndexTable::bucketOf gives.
    OneHome,  ///< All homed on the table's last slot: one wrapping cluster.
};

TEST(BucketBuffer, MatchesListLruReferenceOnRandomOps)
{
    constexpr std::uint64_t kIndexBuckets = (16ULL << 20) / kBlockBytes;
    for (const std::uint32_t capacity : {1u, 2u, 3u, 7u, 128u, 4096u}) {
        const std::uint64_t below = std::max(1u, capacity / 2);
        for (const std::uint64_t range :
             {below, std::uint64_t{10} * capacity}) {
            for (const Keys keys : {Keys::Dense, Keys::Hashed,
                                    Keys::OneHome}) {
                // A one-cluster table walks every resident slot per
                // probe, so it stops at the paper's 128 buckets.
                if (keys == Keys::OneHome && capacity > 128)
                    continue;
                SCOPED_TRACE(::testing::Message()
                             << "capacity " << capacity << ", range "
                             << range << ", keys "
                             << static_cast<int>(keys));
                BucketBuffer buffer(capacity);
                ListLruBuffer reference(capacity);
                Rng rng(capacity * 1000 + range * 10 +
                        static_cast<std::uint64_t>(keys));
                for (int op = 0; op < 100000; ++op) {
                    const std::uint64_t k = rng.below(range);
                    const std::uint64_t bucket =
                        keys == Keys::Dense ? k
                        : keys == Keys::Hashed
                            ? hashToBucket(k, kIndexBuckets)
                            : (k << 32) | 0xffffffffULL;
                    const bool dirty = rng.chance(0.5);
                    if (rng.chance(0.5)) {
                        ASSERT_EQ(buffer.probe(bucket, dirty),
                                  reference.probe(bucket, dirty)) << op;
                    } else {
                        ASSERT_EQ(buffer.insert(bucket, dirty),
                                  reference.insert(bucket, dirty)) << op;
                    }
                    ASSERT_EQ(buffer.size(), reference.size()) << op;
                }
                EXPECT_EQ(buffer.stats().hits, reference.stats.hits);
                EXPECT_EQ(buffer.stats().misses, reference.stats.misses);
                EXPECT_EQ(buffer.stats().writebacks,
                          reference.stats.writebacks);
                EXPECT_GT(buffer.stats().hits, 0u);
                if (range > capacity) {
                    EXPECT_GT(buffer.stats().writebacks, 0u);
                }
            }
        }
    }
}

} // namespace
} // namespace stms
