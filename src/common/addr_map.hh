/**
 * @file
 * Flat address-keyed map for small in-flight sets (MSHRs).
 *
 * The MSHR file holds at most a few dozen outstanding blocks — the
 * demand window plus each prefetcher's in-flight cap — but it is
 * probed on every post-L1 demand access and every prefetch issue, and
 * mutated (insert + extract) once per off-chip transfer. A hash map
 * pays a heap node per mutation and a pointer chase per probe at that
 * size; this structure keeps the keys in one array scanned with
 * findFirstEqual() (common/scan.hh) and the values in a parallel
 * vector, so a probe is one linear sweep and removal is a
 * swap-with-last. Keys are unique; no operation depends on iteration
 * order, which is what makes the swap-remove safe for the repo's
 * bit-identity gates.
 */

#ifndef STMS_COMMON_ADDR_MAP_HH
#define STMS_COMMON_ADDR_MAP_HH

#include <cstring>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/scan.hh"
#include "common/types.hh"

namespace stms
{

/** Flat {Addr -> V} map; V must be movable. */
template <typename V>
class FlatAddrMap
{
  public:
    static constexpr std::size_t kNpos = stms::kNpos;

    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    /** Slot of @p key, or kNpos. Slots are invalidated by erase. */
    std::size_t
    indexOf(Addr key) const
    {
        return findFirstEqual(keys_.data(), values_.size(), key);
    }

    bool contains(Addr key) const { return indexOf(key) != kNpos; }

    /** Value lookup; nullptr when absent. */
    V *
    find(Addr key)
    {
        const std::size_t slot = indexOf(key);
        return slot == kNpos ? nullptr : &values_[slot];
    }

    V &valueAt(std::size_t slot) { return values_[slot]; }

    /** Insert a new pair; @p key must not be present. */
    void
    emplace(Addr key, V &&value)
    {
        stms_assert(indexOf(key) == kNpos,
                    "duplicate flat-map key %llx",
                    static_cast<unsigned long long>(key));
        if (values_.size() + 1 > slots_)
            grow();
        keys_[values_.size()] = key;
        values_.push_back(std::move(value));
    }

    /** Move the value out of @p slot and swap-remove the pair. */
    V
    take(std::size_t slot)
    {
        V value = std::move(values_[slot]);
        const std::size_t last = values_.size() - 1;
        if (slot != last) {
            keys_[slot] = keys_[last];
            values_[slot] = std::move(values_[last]);
        }
        values_.pop_back();
        return value;
    }

  private:
    void
    grow()
    {
        const std::size_t grown = slots_ == 0 ? 16 : slots_ * 2;
        ArenaBuffer<Addr> keys(grown);
        if (!values_.empty()) {
            std::memcpy(keys.data(), keys_.data(),
                        values_.size() * sizeof(Addr));
        }
        keys_ = std::move(keys);
        slots_ = grown;
        values_.reserve(grown);
    }

    /** Keys packed [0, size()). */
    ArenaBuffer<Addr> keys_;
    std::size_t slots_ = 0;
    std::vector<V> values_;
};

} // namespace stms

#endif // STMS_COMMON_ADDR_MAP_HH
