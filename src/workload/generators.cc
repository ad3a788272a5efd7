#include "workload/generators.hh"

#include <algorithm>
#include <cmath>
#include <new>
#include <queue>
#include <stdexcept>

#include "common/log.hh"

namespace stms
{

namespace
{

/** Per-core address-region tags (bits 36..39 select the region). */
constexpr Addr
regionBase(CoreId core, std::uint64_t region)
{
    return (static_cast<Addr>(core + 1) << 40) | (region << 36);
}

constexpr std::uint64_t kStreamRegion = 1;
constexpr std::uint64_t kNoiseRegion = 2;
constexpr std::uint64_t kHotRegion = 3;
constexpr std::uint64_t kScanRegion = 4;

/** Log-uniform draw in [lo, hi]. */
std::uint64_t
logUniform(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    if (lo >= hi)
        return lo;
    const double log_lo = std::log(static_cast<double>(lo));
    const double log_hi = std::log(static_cast<double>(hi));
    const double draw = std::exp(log_lo + rng.uniform() *
                                 (log_hi - log_lo));
    return static_cast<std::uint64_t>(draw);
}

} // namespace

/**
 * The suspended per-lane state machine.
 *
 * This is the old generateCore() loop unrolled into an object: every
 * lambda capture became a field, the implicit "inside the burst
 * for-loop" position became burstLeft_, and the records.size() the
 * loop consulted became emitted_. The RNG call order per emitted
 * record is identical to the original loop — that order *is* the
 * trace bytes, and every committed baseline depends on it.
 */
struct LaneGenerator::State
{
    State(const WorkloadSpec &spec_in, CoreId core_in)
        : spec(spec_in), core(core_in),
          rng(spec.seed * 0x9e3779b9ULL + core * 0x85ebca6bULL + 1),
          maxReuse(std::min(
              spec.maxReuseRecords,
              std::max<std::uint64_t>(spec.recordsPerCore / 2, 2))),
          minReuse(std::min(spec.minReuseRecords, maxReuse)),
          lengthConfig{1, spec.minStreamLen, spec.maxStreamLen,
                       spec.lengthLogMean, spec.lengthLogSigma, 0},
          streamNext(blockNumber(regionBase(core, kStreamRegion))),
          scanNext(blockNumber(regionBase(core, kScanRegion))),
          pNoise(spec.noiseFraction),
          pHot(pNoise + spec.hotFraction),
          pScan(pHot + spec.scanFraction)
    {
    }

    struct LiveStream
    {
        std::vector<Addr> body;
        std::uint32_t visitsLeft;
    };

    std::uint32_t
    makeStream()
    {
        const std::uint32_t length =
            spec.loopSingleStream
                ? spec.minStreamLen
                : StreamLibrary::sampleLength(lengthConfig, rng);
        LiveStream stream;
        stream.body.resize(length);
        for (std::uint32_t i = 0; i < length; ++i)
            stream.body[i] = blockAddress(streamNext + i);
        for (std::uint32_t i = length - 1; i > 0; --i) {
            const auto j =
                static_cast<std::uint32_t>(rng.below(i + 1));
            std::swap(stream.body[i], stream.body[j]);
        }
        streamNext += length;
        if (rng.chance(spec.onceFraction)) {
            stream.visitsLeft = 0;  // Visited once, never again.
        } else {
            // Geometric total-visit count with the configured mean.
            stream.visitsLeft = static_cast<std::uint32_t>(
                rng.geometric(1.0 / spec.meanVisits));
        }
        streams.push_back(std::move(stream));
        return static_cast<std::uint32_t>(streams.size() - 1);
    }

    Addr
    nextStreamAddr(std::uint64_t idx)
    {
        if (spec.loopSingleStream) {
            if (current < 0)
                current = makeStream();
            auto &body =
                streams[static_cast<std::size_t>(current)].body;
            if (position >= body.size())
                position = 0;  // Next iteration of the computation.
            return body[position++];
        }

        if (current >= 0 &&
            position <
                streams[static_cast<std::size_t>(current)]
                    .body.size()) {
            return streams[static_cast<std::size_t>(current)]
                .body[position++];
        }

        // Current playback exhausted: prefer a due recurrence, else
        // mint fresh data.
        if (!pending.empty() && pending.top().first <= idx) {
            current = pending.top().second;
            pending.pop();
        } else {
            current = makeStream();
        }
        auto &stream = streams[static_cast<std::size_t>(current)];
        if (stream.visitsLeft > 0) {
            --stream.visitsLeft;
            pending.emplace(idx + logUniform(rng, minReuse, maxReuse),
                            static_cast<std::uint32_t>(current));
        }
        position = 0;
        return stream.body[position++];
    }

    TraceRecord
    finishRecord(Addr addr, std::uint16_t think, bool dependent)
    {
        TraceRecord record;
        record.addr = addr;
        record.think = think;
        std::uint8_t flags = 0;
        if (rng.chance(spec.writeFraction))
            flags |= TraceRecord::kWrite;
        if (dependent)
            flags |= TraceRecord::kDependent;
        record.flags = flags;
        return record;
    }

    bool
    next(TraceRecord &out)
    {
        if (emitted >= spec.recordsPerCore)
            return false;

        if (burstLeft > 0) {
            // Burst continuation: further stream accesses issue
            // back-to-back and independently. The original loop
            // passed both draws as arguments of one call; the
            // compiler evaluated the think draw before the stream
            // address, and that order is load-bearing.
            --burstLeft;
            const auto think =
                static_cast<std::uint16_t>(rng.range(2, 10));
            const Addr addr = nextStreamAddr(emitted);
            out = finishRecord(addr, think, false);
            ++emitted;
            return true;
        }

        const double roll = rng.uniform();
        const auto think = static_cast<std::uint16_t>(
            rng.range(spec.thinkMin, spec.thinkMax));
        const bool dependent = rng.chance(spec.dependentProb);

        if (roll < pNoise) {
            out = finishRecord(
                regionBase(core, kNoiseRegion) +
                    blockAddress(rng.below(spec.noiseBlocks)),
                think, dependent);
        } else if (roll < pHot) {
            out = finishRecord(
                regionBase(core, kHotRegion) +
                    blockAddress(rng.below(spec.hotBlocks)),
                think, dependent);
        } else if (roll < pScan) {
            out = finishRecord(blockAddress(scanNext++), think,
                               dependent);
        } else {
            out = finishRecord(nextStreamAddr(emitted), think,
                               dependent);
            if (spec.missBurstMax > 0) {
                burstLeft = rng.below(spec.missBurstMax + 1);
            }
        }
        ++emitted;
        return true;
    }

    WorkloadSpec spec;
    CoreId core;
    Rng rng;

    // Temporal-stream machinery: streams are created lazily; each
    // gets a geometric number of total visits and recurrences
    // scheduled at log-uniform reuse distances. A min-heap of
    // (due record index, stream id) decides whether the next stream
    // playback is a recurrence or fresh data.
    std::vector<LiveStream> streams;
    using Due = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Due, std::vector<Due>, std::greater<>> pending;

    std::uint64_t maxReuse;
    std::uint64_t minReuse;
    LibraryConfig lengthConfig;
    Addr streamNext;
    Addr scanNext;
    double pNoise;
    double pHot;
    double pScan;

    std::int64_t current = -1;  ///< Stream being played back.
    std::size_t position = 0;
    std::uint64_t emitted = 0;
    std::uint64_t burstLeft = 0;  ///< Burst records still owed.
};

LaneGenerator::LaneGenerator(const WorkloadSpec &spec, CoreId core)
    : state_(std::make_unique<State>(spec, core))
{
}

LaneGenerator::~LaneGenerator() = default;
LaneGenerator::LaneGenerator(LaneGenerator &&) noexcept = default;
LaneGenerator &
LaneGenerator::operator=(LaneGenerator &&) noexcept = default;

std::size_t
LaneGenerator::fill(std::vector<TraceRecord> &out,
                    std::size_t max_records)
{
    std::size_t appended = 0;
    TraceRecord record;
    while (appended < max_records && state_->next(record)) {
        out.push_back(record);
        ++appended;
    }
    return appended;
}

bool
LaneGenerator::done() const
{
    return state_->emitted >= state_->spec.recordsPerCore;
}

std::uint64_t
LaneGenerator::emitted() const
{
    return state_->emitted;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec &spec)
    : spec_(spec)
{
    stms_assert(spec.numCores > 0, "workload needs cores");
    stms_assert(spec.noiseFraction + spec.hotFraction +
                    spec.scanFraction <= 1.0 + 1e-9,
                "access-mix fractions exceed 1.0 in workload %s",
                spec.name.c_str());
    stms_assert(spec.meanVisits >= 1.0, "meanVisits must be >= 1");
}

Trace
WorkloadGenerator::generate() const
{
    Trace trace;
    trace.name = spec_.name;
    trace.perCore.resize(spec_.numCores);
    for (CoreId core = 0; core < spec_.numCores; ++core)
        generateCore(core, trace.perCore[core]);
    return trace;
}

void
WorkloadGenerator::generateCore(CoreId core,
                                std::vector<TraceRecord> &records) const
{
    // An oversized records= is a user error: fail with exit 1 on
    // whichever thread generates, never with an uncaught exception.
    bool fits = true;
    try {
        records.reserve(spec_.recordsPerCore);
    } catch (const std::length_error &) {
        fits = false;
    } catch (const std::bad_alloc &) {
        fits = false;
    }
    if (!fits) {
        stms_fatal("records=%llu per core is too many to hold in memory "
                   "(workload %s, %u cores, %zu bytes a record); lower "
                   "records=",
                   static_cast<unsigned long long>(spec_.recordsPerCore),
                   spec_.name.c_str(), static_cast<unsigned>(spec_.numCores),
                   sizeof(TraceRecord));
    }
    LaneGenerator lane(spec_, core);
    lane.fill(records, spec_.recordsPerCore);
}

} // namespace stms
