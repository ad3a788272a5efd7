/**
 * @file
 * Address hashing used by the STMS index table and baseline predictors.
 *
 * The index table hashes a physical block address to a bucket number
 * (Sec. 4.3). We use a strong 64-bit finalizer so that bucket occupancy
 * stays uniform even for the highly structured addresses synthetic
 * workloads produce.
 */

#ifndef STMS_COMMON_HASH_HH
#define STMS_COMMON_HASH_HH

#include <cstdint>

#include "common/types.hh"

namespace stms
{

/** MurmurHash3 64-bit finalizer; a bijective mixer. */
constexpr std::uint64_t
mixHash64(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key;
}

/** Hash a block address into [0, buckets). */
constexpr std::uint64_t
hashToBucket(Addr block_addr, std::uint64_t buckets)
{
    return mixHash64(block_addr) % buckets;
}

/** FNV-1a offset basis (the seed of an empty hash). */
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/**
 * 64-bit FNV-1a over a byte range. Used where a *stable* hash of
 * serialized output matters — the model digests (the ModelDigest
 * tests, the sweep benchmark's check) are FNV-1a values pinned
 * across builds and machines, so this
 * function must never change. Chain calls by passing the previous
 * result as @p seed.
 */
constexpr std::uint64_t
fnv1a64(const char *data, std::size_t size,
        std::uint64_t seed = kFnv1aOffset)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 0x100000001b3ULL;  // FNV prime.
    }
    return hash;
}

} // namespace stms

#endif // STMS_COMMON_HASH_HH
