#include "core/history_buffer.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "common/scan.hh"

namespace stms
{

HistoryBuffer::HistoryBuffer(std::uint64_t capacity_entries,
                             std::uint32_t entries_per_block)
    : capacity_(capacity_entries), entriesPerBlock_(entries_per_block)
{
    stms_assert(entries_per_block > 0, "entriesPerBlock must be nonzero");
    if (capacity_ > 0) {
        blocks_.reset(capacity_);
        marks_.reset(capacity_);
        slots_ = capacity_;
    }
}

void
HistoryBuffer::growUnbounded()
{
    const std::uint64_t grown = slots_ == 0 ? 4096 : slots_ * 2;
    ArenaBuffer<Addr> blocks(grown);
    ArenaBuffer<std::uint8_t> marks(grown);
    if (head_ > 0) {
        std::memcpy(blocks.data(), blocks_.data(),
                    head_ * sizeof(Addr));
        std::memcpy(marks.data(), marks_.data(), head_);
    }
    blocks_ = std::move(blocks);
    marks_ = std::move(marks);
    slots_ = grown;
}

SeqNum
HistoryBuffer::append(Addr block)
{
    // Grow before claiming the slot: growUnbounded() copies exactly
    // head_ written entries, so head_ must not count this append yet.
    if (unbounded() && head_ >= slots_)
        growUnbounded();
    const SeqNum seq = head_++;
    const std::uint64_t slot = slotOf(seq);
    blocks_[slot] = block;
    marks_[slot] = 0;
    return seq;
}

bool
HistoryBuffer::valid(SeqNum seq) const
{
    if (seq >= head_)
        return false;
    if (unbounded())
        return true;
    return head_ - seq <= capacity_;
}

HistoryEntry
HistoryBuffer::at(SeqNum seq) const
{
    stms_assert(valid(seq), "history read of invalid seq %llu (head %llu)",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(head_));
    const std::uint64_t slot = slotOf(seq);
    return HistoryEntry{blocks_[slot], marks_[slot] != 0};
}

void
HistoryBuffer::readWindow(SeqNum first, std::uint32_t max_entries,
                          Addr *blocks, std::uint8_t *marks) const
{
    if (max_entries == 0)
        return;
    stms_assert(valid(first) && first + max_entries <= head_,
                "history window [%llu, +%u) outside retained log "
                "(head %llu)",
                static_cast<unsigned long long>(first), max_entries,
                static_cast<unsigned long long>(head_));
    std::uint64_t slot = slotOf(first);
    std::uint32_t copied = 0;
    while (copied < max_entries) {
        // One contiguous segment per pass; a wrap costs a second pass.
        const std::uint64_t run = unbounded()
                                      ? max_entries - copied
                                      : std::min<std::uint64_t>(
                                            max_entries - copied,
                                            capacity_ - slot);
        std::memcpy(blocks + copied, blocks_.data() + slot,
                    run * sizeof(Addr));
        std::memcpy(marks + copied, marks_.data() + slot, run);
        copied += static_cast<std::uint32_t>(run);
        slot = 0;
    }
}

SeqNum
HistoryBuffer::scanWindow(SeqNum first, Addr block) const
{
    stms_assert(first == head_ || valid(first),
                "history scan from invalid seq %llu (head %llu)",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(head_));
    SeqNum seq = first;
    while (seq < head_) {
        const std::uint64_t slot = slotOf(seq);
        const std::uint64_t run =
            unbounded() ? head_ - seq
                        : std::min<std::uint64_t>(head_ - seq,
                                                  capacity_ - slot);
        const std::size_t hit =
            findFirstEqual(blocks_.data() + slot, run, block);
        if (hit != kNpos)
            return seq + hit;
        seq += run;
    }
    return kInvalidSeq;
}

bool
HistoryBuffer::setEndMark(SeqNum seq)
{
    if (!valid(seq))
        return false;
    marks_[slotOf(seq)] = 1;
    return true;
}

bool
HistoryBuffer::lastAppendCompletedBlock() const
{
    return head_ > 0 && head_ % entriesPerBlock_ == 0;
}

std::uint64_t
HistoryBuffer::footprintBytes() const
{
    const std::uint64_t entries = unbounded() ? head_ : capacity_;
    return divCeil(entries, entriesPerBlock_) * kBlockBytes;
}

} // namespace stms
