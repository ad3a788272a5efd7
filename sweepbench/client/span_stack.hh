/**
 * @file
 * Per-thread span stack with exact self-time arithmetic.
 *
 * The traced client wraps every call it makes across a simulator seam
 * (a prefetcher hook, a PrefetchPort call, a record-cursor call, a
 * trace acquisition, a whole run) in a Span. Spans nest, and in
 * functional mode they re-enter: STMS issues a meta-data request
 * (port) whose completion runs inline and calls back into STMS (core
 * again). A span's self time is therefore its duration minus the
 * durations of its *direct* children, which splits every interval
 * exactly once: the self times of all spans under a root sum to the
 * root's duration, however deep the re-entry goes.
 *
 * Times are clock ticks (see nowTicks()); nsPerTick() converts them.
 * Totals are kept per layer in memory and handed out with take(), so
 * the hot path never allocates, locks or writes a file.
 */

#ifndef SWEEPBENCH_SPAN_STACK_HH
#define SWEEPBENCH_SPAN_STACK_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace sweepbench
{

/** The simulator layers the client times, named after src/ modules. */
enum class Layer : std::uint8_t
{
    Workload,  ///< TraceCache::acquire (trace generation or cache hit).
    TraceIo,   ///< RecordCursor calls and trace_io::openSource.
    Sim,       ///< A whole run minus everything below (sim/ itself).
    Port,      ///< PrefetchPort::issuePrefetch / metaRequest.
    Core,      ///< STMS hooks and meta-data completions (core/).
    Prefetch,  ///< Base stride prefetcher hooks (prefetch/).
};

inline constexpr std::size_t kNumLayers = 6;

inline const char *
layerName(Layer layer)
{
    static constexpr const char *kNames[kNumLayers] = {
        "workload", "trace_io", "sim", "port", "core", "prefetch"};
    return kNames[static_cast<std::size_t>(layer)];
}

/** Accumulated spans of one layer, in clock ticks. */
struct LayerTotals
{
    /** Sum of span durations; a re-entered layer counts its nested
     *  spans again, so only selfTicks sums meaningfully across layers. */
    std::int64_t totalTicks = 0;
    /** Sum of (duration - durations of direct child spans). */
    std::int64_t selfTicks = 0;
    std::uint64_t spans = 0;
    /** Direct child spans opened inside this layer's spans. */
    std::uint64_t children = 0;
};

using LayerTable = std::array<LayerTotals, kNumLayers>;

/**
 * Open spans of one thread plus the layer totals they closed into.
 * Functional-mode completions run inline and chain, so one fig7 run
 * nests a few thousand spans deep; the frame vector keeps its
 * capacity, so after warm-up begin() never allocates.
 */
class SpanStack
{
  public:
    SpanStack() { frames_.reserve(4096); }

    void
    begin(Layer layer, std::int64_t now)
    {
        frames_.push_back(Frame{layer, now, 0, 0});
    }

    void
    end(std::int64_t now)
    {
        if (frames_.empty()) {
            std::fputs("span stack underflow\n", stderr);
            std::abort();
        }
        const Frame frame = frames_.back();
        frames_.pop_back();
        const std::int64_t duration = now - frame.start;
        LayerTotals &totals = totals_[static_cast<std::size_t>(frame.layer)];
        totals.totalTicks += duration;
        totals.selfTicks += duration - frame.childTicks;
        ++totals.spans;
        totals.children += frame.children;
        if (!frames_.empty()) {
            frames_.back().childTicks += duration;
            ++frames_.back().children;
        }
    }

    std::size_t depth() const { return frames_.size(); }

    /** Hand back the totals closed so far and start from zero. */
    LayerTable
    take()
    {
        const LayerTable out = totals_;
        totals_ = LayerTable{};
        return out;
    }

  private:
    struct Frame
    {
        Layer layer;
        std::int64_t start;
        std::int64_t childTicks;
        std::uint64_t children;
    };

    std::vector<Frame> frames_;
    LayerTable totals_{};
};

inline std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Whether spans read the TSC: x86-64 with an invariant TSC (CPUID
 *  0x80000007, EDX bit 8), which ticks at one rate in every power state
 *  and costs about half a steady_clock read. */
inline bool
invariantTsc()
{
#if defined(__x86_64__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx))
        return (edx >> 8) & 1;
#endif
    return false;
}

inline const bool kUseTsc = invariantTsc();

/** The span clock: the TSC where it is invariant, else steady_clock
 *  nanoseconds. */
inline std::int64_t
nowTicks()
{
#if defined(__x86_64__)
    if (kUseTsc)
        return static_cast<std::int64_t>(__rdtsc());
#endif
    return steadyNs();
}

/** Nanoseconds per nowTicks() tick, measured once against
 *  steady_clock over a 50 ms window. */
inline double
nsPerTick()
{
    static const double ratio = [] {
        if (!kUseTsc)
            return 1.0;
        const std::int64_t ns0 = steadyNs();
        const std::int64_t ticks0 = nowTicks();
        std::int64_t ns1 = ns0;
        while (ns1 - ns0 < 50'000'000)
            ns1 = steadyNs();
        const std::int64_t ticks1 = nowTicks();
        return static_cast<double>(ns1 - ns0) /
               static_cast<double>(ticks1 - ticks0);
    }();
    return ratio;
}

/** RAII span on the span clock. */
class Span
{
  public:
    Span(SpanStack &stack, Layer layer) : stack_(stack)
    {
        stack_.begin(layer, nowTicks());
    }
    ~Span() { stack_.end(nowTicks()); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanStack &stack_;
};

} // namespace sweepbench

#endif // SWEEPBENCH_SPAN_STACK_HH
