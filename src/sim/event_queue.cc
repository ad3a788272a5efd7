#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hh"

namespace stms
{

namespace
{

/** Heap order for std::push_heap/pop_heap: the earliest (tick, seq)
 *  on top. */
template <typename Event>
bool
later(const Event &a, const Event &b)
{
    if (a.tick != b.tick)
        return a.tick > b.tick;
    return a.seq > b.seq;
}

} // namespace

EventQueue::EventQueue()
    : buckets_(std::make_unique<Bucket[]>(kWheelTicks))
{}

void
EventQueue::addChunk()
{
    chunks_.push_back(std::make_unique<Node[]>(kChunkEvents));
    Node *chunk = chunks_.back().get();
    for (std::size_t i = kChunkEvents; i-- > 0;) {
        chunk[i].next = freeNodes_;
        freeNodes_ = &chunk[i];
    }
}

void
EventQueue::enqueue(Cycle when, Node *node)
{
    stms_assert(when >= now_,
                "event scheduled in the past (%llu < %llu)",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(now_));
    ++pending_;
    if (when - now_ < kWheelTicks) {
        pushBucket(when, node);
        return;
    }
    overflow_.push_back(Overflow{when, nextSeq_++, node});
    std::push_heap(overflow_.begin(), overflow_.end(), later<Overflow>);
}

void
EventQueue::pushBucket(Cycle when, Node *node)
{
    const std::size_t slot = when & kWheelMask;
    Bucket &bucket = buckets_[slot];
    node->next = nullptr;
    if (bucket.head == nullptr) {
        bucket.head = node;
        occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    } else {
        bucket.tail->next = node;
    }
    bucket.tail = node;
}

Cycle
EventQueue::nextWheelTick() const
{
    const std::size_t start = now_ & kWheelMask;
    std::size_t word = start / 64;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
    // Scan forward, wrapping round to the start word, whose bits below
    // now() stand for the wheel's farthest ticks.
    while (bits == 0) {
        word = (word + 1) % kWords;
        bits = occupied_[word];
    }
    const std::size_t slot =
        word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    return now_ + ((slot - start) & kWheelMask);
}

void
EventQueue::admitOverflow()
{
    while (!overflow_.empty() &&
           overflow_.front().tick - now_ < kWheelTicks) {
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      later<Overflow>);
        pushBucket(overflow_.back().tick, overflow_.back().node);
        overflow_.pop_back();
    }
}

Cycle
EventQueue::run()
{
    return runUntil(std::numeric_limits<Cycle>::max());
}

Cycle
EventQueue::runUntil(Cycle limit)
{
    while (pending_ != 0) {
        const Cycle tick = pending_ == overflow_.size()
                               ? overflow_.front().tick
                               : nextWheelTick();
        if (tick > limit)
            break;
        if (tick != now_) {
            now_ = tick;
            admitOverflow();
        }
        const std::size_t slot = tick & kWheelMask;
        Bucket &bucket = buckets_[slot];
        Node *node = bucket.head;
        bucket.head = node->next;
        if (bucket.head == nullptr)
            occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        --pending_;
        ++executed_;
        // The node stays off the free list until its callback returns:
        // anything the callback schedules goes into other nodes.
        node->fn.consume();
        node->next = freeNodes_;
        freeNodes_ = node;
    }
    return now_;
}

} // namespace stms
