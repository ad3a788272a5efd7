#include "sim/cache.hh"

#include "common/log.hh"

namespace stms
{

Cache::Cache(const CacheConfig &config)
    : name_(config.name), ways_(config.ways)
{
    stms_assert(config.sizeBytes % (kBlockBytes * config.ways) == 0,
                "%s: size %llu not divisible by ways*blockSize",
                name_.c_str(),
                static_cast<unsigned long long>(config.sizeBytes));
    sets_ = config.sizeBytes / (kBlockBytes * config.ways);
    stms_assert(isPowerOfTwo(sets_), "%s: set count %llu not a power of 2",
                name_.c_str(), static_cast<unsigned long long>(sets_));
    lines_.resize(sets_ * ways_);
}

Eviction
Cache::fill(Addr block_addr, bool dirty)
{
    block_addr = blockAlign(block_addr);
    Eviction evicted;

    // Refill of a block that is already present just updates state.
    if (Line *line = findLine(block_addr)) {
        line->dirty |= dirty;
        line->lastUse = ++clock_;
        return evicted;
    }

    // The first invalid way, else the first way with the oldest stamp.
    Line *base = &lines_[setIndex(block_addr) * ways_];
    Line *victim = base;
    for (Line *line = base; line != base + ways_; ++line) {
        if (!line->valid) {
            victim = line;
            break;
        }
        if (line->lastUse < victim->lastUse)
            victim = line;
    }
    if (victim->valid) {
        evicted.valid = true;
        evicted.dirty = victim->dirty;
        evicted.blockAddr = victim->tag;
        ++stats_.evictions;
        if (victim->dirty)
            ++stats_.dirtyEvictions;
    }

    *victim = Line{block_addr, ++clock_, true, dirty};
    ++stats_.fills;
    return evicted;
}

bool
Cache::invalidate(Addr block_addr)
{
    if (Line *line = findLine(blockAlign(block_addr))) {
        line->valid = false;
        line->dirty = false;
        line->tag = kInvalidAddr;
        ++stats_.invalidations;
        return true;
    }
    return false;
}

void
Cache::markDirty(Addr block_addr)
{
    if (Line *line = findLine(blockAlign(block_addr)))
        line->dirty = true;
}

std::uint64_t
Cache::occupancy() const
{
    std::uint64_t count = 0;
    for (const Line &line : lines_)
        count += line.valid ? 1 : 0;
    return count;
}

} // namespace stms
