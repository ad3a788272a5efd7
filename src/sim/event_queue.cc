#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace stms
{

EventQueue::EventQueue()
{
    heap_.reserve(kInitialCapacity);
    slab_.reserve(kInitialCapacity);
    freeSlots_.reserve(kInitialCapacity);
}

void
EventQueue::scheduleAt(Cycle when, Callback fn)
{
    stms_assert(when >= now_,
                "event scheduled in the past (%llu < %llu)",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(now_));
    std::size_t slot = slab_.size();
    if (freeSlots_.empty()) {
        slab_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slab_[slot] = std::move(fn);
    }
    heap_.push_back(Key{when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Cycle
EventQueue::run()
{
    return runUntil(std::numeric_limits<Cycle>::max());
}

Cycle
EventQueue::runUntil(Cycle limit)
{
    while (!heap_.empty() && heap_.front().tick <= limit) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Key key = heap_.back();
        heap_.pop_back();
        Callback fn = std::move(slab_[key.slot]);
        freeSlots_.push_back(key.slot);
        now_ = key.tick;
        ++executed_;
        fn();
    }
    return now_;
}

} // namespace stms
