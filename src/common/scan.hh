/**
 * @file
 * First-match scan over a short u64 array.
 *
 * Index-table buckets, prefetch buffers, stream issued sets and the
 * MSHR map all bottom out in the same primitive: find the first
 * element of a small contiguous key array equal to a key. The arrays
 * are a dozen to a few dozen keys long, so a plain loop the compiler
 * can inline is the whole implementation. It reads exactly `count`
 * elements.
 */

#ifndef STMS_COMMON_SCAN_HH
#define STMS_COMMON_SCAN_HH

#include <cstddef>
#include <cstdint>

namespace stms
{

/** Returned by findFirstEqual() when no element matches. */
inline constexpr std::size_t kNpos = ~static_cast<std::size_t>(0);

/** Index of the first element of keys[0, count) equal to @p key, or
 *  kNpos. */
inline std::size_t
findFirstEqual(const std::uint64_t *keys, std::size_t count,
               std::uint64_t key)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (keys[i] == key)
            return i;
    }
    return kNpos;
}

} // namespace stms

#endif // STMS_COMMON_SCAN_HH
