/**
 * @file
 * One simulation run assembled like stms::runTrace(), with every
 * public seam between the simulator's layers timed from outside.
 *
 * Decorators added to the runTrace() assembly:
 *  - each Prefetcher is wrapped in a TimedPrefetcher, which is also the
 *    PrefetchPort its inner prefetcher sees, so hooks (MemorySystem ->
 *    prefetcher) and port calls (prefetcher -> MemorySystem) are both
 *    spans;
 *  - the TraceSource is wrapped so every lane cursor call is a span;
 *  - the caller surrounds TraceCache::acquire / openSource, and this
 *    function surrounds the whole run (construction, CmpSystem::run,
 *    result extraction) with a Layer::Sim span.
 *
 * None of this may change model output: the bench compares the traced
 * run's digest and report against the untraced driver's.
 */

#ifndef SWEEPBENCH_TRACED_RUN_HH
#define SWEEPBENCH_TRACED_RUN_HH

#include <array>
#include <cstdint>

#include "core/bucket_buffer.hh"
#include "core/index_table.hh"
#include "sim/cache.hh"
#include "sim/run.hh"
#include "span_stack.hh"
#include "trace_io/trace_source.hh"

namespace sweepbench
{

/** Prefetcher hooks (plus meta-data completions) one decorator saw. */
enum class Hook : std::uint8_t
{
    OffchipRead,
    PrefetchUsed,
    PrefetchUnused,
    ForeignCovered,
    PrefetchFill,
    AccessHint,
    MetaCallback,
};

inline constexpr std::size_t kNumHooks = 7;

inline const char *
hookName(Hook hook)
{
    static constexpr const char *kNames[kNumHooks] = {
        "on_offchip_read",    "on_prefetch_used", "on_prefetch_unused",
        "on_foreign_covered", "on_prefetch_fill", "on_access_hint",
        "meta_callback"};
    return kNames[static_cast<std::size_t>(hook)];
}

using HookCalls = std::array<std::uint64_t, kNumHooks>;

/**
 * Exact work counts of one run. Two windows: the decorator and event
 * counts cover the whole run, while the simulator's own stats structs
 * are zeroed at the warmup barrier (MemorySystem::resetStats) and cover
 * only the measured window.
 */
struct RunCounts
{
    // Whole run.
    std::uint64_t records = 0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t chunks = 0;  ///< Non-empty RecordCursor::chunk() windows.
    HookCalls strideCalls{};
    bool hasStms = false;
    HookCalls stmsCalls{};

    // Measured window (stats reset at the warmup barrier).
    stms::CacheStats l1;  ///< Summed over cores.
    stms::CacheStats l2;
    stms::IndexTableStats index;
    stms::BucketBufferStats bucketBuffer;
};

/** Execute one run on @p source with the seams timed on @p spans. */
stms::RunOutput runTraced(stms::trace_io::TraceSource &source,
                          const stms::RunConfig &config, SpanStack &spans,
                          RunCounts &counts);

} // namespace sweepbench

#endif // SWEEPBENCH_TRACED_RUN_HH
