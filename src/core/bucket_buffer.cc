#include "core/bucket_buffer.hh"

#include <bit>

#include "common/log.hh"

namespace stms
{

BucketBuffer::BucketBuffer(std::uint32_t capacity)
    : capacity_(capacity),
      mask_(std::bit_ceil(4 * std::uint64_t{capacity}) - 1),
      nodes_(capacity), slots_(mask_ + 1)
{
    stms_assert(capacity > 0, "bucket buffer needs capacity");
    for (std::uint64_t s = 0; s <= mask_; ++s)
        slots_[s].node = kNil;
}

std::uint32_t
BucketBuffer::find(std::uint64_t bucket) const
{
    for (std::uint64_t s = bucket & mask_;; s = (s + 1) & mask_) {
        const Slot &slot = slots_[s];
        if (slot.node == kNil || slot.bucket == bucket)
            return slot.node;
    }
}

void
BucketBuffer::touch(std::uint32_t node)
{
    if (node == head_)
        return;
    const Node &n = nodes_[node];
    nodes_[n.prev].next = n.next;
    if (n.next == kNil)
        tail_ = n.prev;
    else
        nodes_[n.next].prev = n.prev;
    linkFront(node);
}

void
BucketBuffer::linkFront(std::uint32_t node)
{
    nodes_[node].prev = kNil;
    nodes_[node].next = head_;
    if (head_ == kNil)
        tail_ = node;
    else
        nodes_[head_].prev = node;
    head_ = node;
}

void
BucketBuffer::unindex(std::uint32_t node)
{
    std::uint64_t hole = nodes_[node].bucket & mask_;
    while (slots_[hole].node != node)
        hole = (hole + 1) & mask_;
    // Each later entry of the cluster moves back into the hole unless
    // its home slot lies cyclically after the hole: moved there, it
    // would sit before its home, where find() never looks.
    for (std::uint64_t s = (hole + 1) & mask_; slots_[s].node != kNil;
         s = (s + 1) & mask_) {
        const std::uint64_t home = slots_[s].bucket & mask_;
        if (((s - home) & mask_) >= ((s - hole) & mask_)) {
            slots_[hole] = slots_[s];
            hole = s;
        }
    }
    slots_[hole].node = kNil;
}

bool
BucketBuffer::probe(std::uint64_t bucket, bool dirty)
{
    const std::uint32_t node = find(bucket);
    if (node == kNil) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    nodes_[node].dirty |= dirty;
    touch(node);
    return true;
}

BucketWriteback
BucketBuffer::insert(std::uint64_t bucket, bool dirty)
{
    std::uint32_t node = find(bucket);
    if (node != kNil) {
        nodes_[node].dirty |= dirty;
        touch(node);
        return {};
    }

    BucketWriteback writeback;
    if (size_ < capacity_) {
        node = size_++;
        linkFront(node);
    } else {
        // Reuse the LRU node for the new bucket.
        node = tail_;
        if (nodes_[node].dirty) {
            writeback = {nodes_[node].bucket, true};
            ++stats_.writebacks;
        }
        unindex(node);
        touch(node);
    }
    nodes_[node].bucket = bucket;
    nodes_[node].dirty = dirty;

    std::uint64_t s = bucket & mask_;
    while (slots_[s].node != kNil)
        s = (s + 1) & mask_;
    slots_[s] = Slot{bucket, node};
    return writeback;
}

} // namespace stms
