#include "prefetch/prefetch_buffer.hh"

#include <cstring>

#include "common/log.hh"
#include "common/scan.hh"

namespace stms
{

PrefetchBuffer::PrefetchBuffer(std::uint32_t capacity)
    : capacity_(capacity), blocks_(capacity)
{
    stms_assert(capacity > 0, "prefetch buffer needs capacity");
}

bool
PrefetchBuffer::contains(Addr block) const
{
    return findFirstEqual(blocks_.data(), count_, blockAlign(block)) !=
           kNpos;
}

bool
PrefetchBuffer::consume(Addr block)
{
    const std::size_t slot =
        findFirstEqual(blocks_.data(), count_, blockAlign(block));
    if (slot == kNpos)
        return false;
    // Close the gap; entries behind the hit keep their LRU order.
    std::memmove(&blocks_[slot], &blocks_[slot + 1],
                 (count_ - slot - 1) * sizeof(Addr));
    --count_;
    return true;
}

std::optional<Addr>
PrefetchBuffer::insert(Addr block)
{
    block = blockAlign(block);
    const std::size_t slot = findFirstEqual(blocks_.data(), count_, block);
    if (slot != kNpos) {
        // Refresh recency of a duplicate fill.
        std::memmove(&blocks_[1], &blocks_[0], slot * sizeof(Addr));
        blocks_[0] = block;
        return std::nullopt;
    }

    std::optional<Addr> evicted;
    std::uint32_t shifted = count_;
    if (count_ >= capacity_) {
        evicted = blocks_[count_ - 1];  // LRU victim.
        shifted = count_ - 1;
    } else {
        ++count_;
    }
    std::memmove(&blocks_[1], &blocks_[0], shifted * sizeof(Addr));
    blocks_[0] = block;
    return evicted;
}

bool
PrefetchBuffer::invalidate(Addr block)
{
    return consume(blockAlign(block));
}

} // namespace stms
