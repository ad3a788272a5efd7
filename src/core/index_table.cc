#include "core/index_table.hh"

#include "common/hash.hh"
#include "common/log.hh"

namespace stms
{

IndexTable::IndexTable(std::uint64_t total_bytes,
                       std::uint32_t entries_per_bucket)
    : entriesPerBucket_(entries_per_bucket)
{
    stms_assert(entries_per_bucket > 0, "bucket needs entries");
    if (total_bytes == 0) {
        buckets_ = 0;
        return;
    }
    buckets_ = total_bytes / kBlockBytes;
    stms_assert(buckets_ > 0, "index table smaller than one bucket");
    store_.reset(buckets_, entriesPerBucket_);
}

std::uint64_t
IndexTable::bucketOf(Addr block) const
{
    return unbounded() ? 0 : hashToBucket(blockNumber(block), buckets_);
}

std::optional<HistoryPointer>
IndexTable::lookup(Addr block)
{
    ++stats_.lookups;
    // Key by block number so bounded and unbounded mode alias
    // sub-block addresses identically (the bounded hash always used
    // the block number; the tag must match it).
    const Addr key = blockNumber(block);
    if (unbounded()) {
        auto it = map_.find(key);
        if (it == map_.end())
            return std::nullopt;
        ++stats_.lookupHits;
        return HistoryPointer::unpack(it->second);
    }

    const auto pointer = store_.lookup(bucketOf(block), key);
    if (!pointer)
        return std::nullopt;
    ++stats_.lookupHits;
    return HistoryPointer::unpack(*pointer);
}

void
IndexTable::update(Addr block, HistoryPointer pointer)
{
    ++stats_.updates;
    const Addr key = blockNumber(block);
    if (unbounded()) {
        auto [it, inserted] =
            map_.insert_or_assign(key, pointer.packed());
        (void)it;
        if (inserted)
            ++stats_.inserts;
        return;
    }

    switch (store_.update(bucketOf(block), key, pointer.packed())) {
    case detail::BucketUpdate::Refreshed:
        break;
    case detail::BucketUpdate::Inserted:
        ++stats_.inserts;
        ++pairs_;
        break;
    case detail::BucketUpdate::Replaced:
        ++stats_.replacements;
        break;
    }
}

void
IndexTable::prefetchBatch(std::span<const Addr> blocks) const
{
    if (unbounded())
        return;  // Nothing to warm: the map's layout is opaque.
    for (const Addr block : blocks)
        store_.prefetchBucket(bucketOf(block));
}

std::uint64_t
IndexTable::footprintBytes() const
{
    if (unbounded()) {
        // 5.33 bytes/pair at the paper's packing density.
        return divCeil(map_.size(), entriesPerBucket_) * kBlockBytes;
    }
    return buckets_ * kBlockBytes;
}

std::uint64_t
IndexTable::occupancyScan() const
{
    if (unbounded())
        return map_.size();
    return store_.occupancyScan();
}

} // namespace stms
