#include "sim/cache.hh"

#include "common/log.hh"

namespace stms
{

Cache::Cache(const CacheConfig &config)
    : name_(config.name), ways_(config.ways)
{
    stms_assert(config.ways > 0 && config.ways <= 255,
                "%s: %u ways outside [1, 255]", name_.c_str(),
                config.ways);
    stms_assert(config.sizeBytes % (kBlockBytes * config.ways) == 0,
                "%s: size %llu not divisible by ways*blockSize",
                name_.c_str(),
                static_cast<unsigned long long>(config.sizeBytes));
    sets_ = config.sizeBytes / (kBlockBytes * config.ways);
    stms_assert(isPowerOfTwo(sets_), "%s: set count %llu not a power of 2",
                name_.c_str(), static_cast<unsigned long long>(sets_));
    tags_.reset(sets_ * ways_);
    dirty_.reset(sets_ * ways_);
    counts_.reset(sets_);
}

Eviction
Cache::fill(Addr block_addr, bool dirty)
{
    block_addr = blockAlign(block_addr);
    const std::uint64_t set = setIndex(block_addr);
    Eviction evicted;

    // Refill of a block that is already present just updates state.
    const std::size_t way = findWay(set, block_addr);
    if (way != kNpos) {
        promote(set, way, block_addr, dirty || isDirty(set, way));
        return evicted;
    }

    // A full set gives up its last (least recently used) way; the
    // new block then enters as MRU.
    std::uint8_t &count = counts_[set];
    if (count == ways_) {
        evicted.valid = true;
        evicted.dirty = isDirty(set, ways_ - 1);
        evicted.blockAddr = tags_[set * ways_ + ways_ - 1];
        ++stats_.evictions;
        if (evicted.dirty)
            ++stats_.dirtyEvictions;
    } else {
        ++count;
    }
    promote(set, count - 1u, block_addr, dirty);
    ++stats_.fills;
    return evicted;
}

bool
Cache::invalidate(Addr block_addr)
{
    block_addr = blockAlign(block_addr);
    const std::uint64_t set = setIndex(block_addr);
    const std::size_t way = findWay(set, block_addr);
    if (way == kNpos)
        return false;
    // Close the gap: the ways behind it move up one, keeping order.
    Addr *tags = &tags_[set * ways_];
    std::uint8_t *dirties = &dirty_[set * ways_];
    const std::size_t count = --counts_[set];
    for (std::size_t w = way; w < count; ++w) {
        tags[w] = tags[w + 1];
        dirties[w] = dirties[w + 1];
    }
    ++stats_.invalidations;
    return true;
}

void
Cache::markDirty(Addr block_addr)
{
    block_addr = blockAlign(block_addr);
    const std::uint64_t set = setIndex(block_addr);
    const std::size_t way = findWay(set, block_addr);
    if (way != kNpos)
        dirty_[set * ways_ + way] = 1;
}

std::uint64_t
Cache::occupancy() const
{
    std::uint64_t count = 0;
    for (const std::uint8_t live : counts_)
        count += live;
    return count;
}

} // namespace stms
