#include "results/run_codec.hh"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "common/hash.hh"

namespace stms::results
{
namespace
{

/** Codec layout version, stored alongside the scalars. */
constexpr double kRunCodecVersion = 1.0;

/** Names for the per-class traffic arrays. */
std::string
trafficKey(std::size_t cls, const char *leaf)
{
    return std::string("sim.traffic.") +
           trafficClassName(static_cast<TrafficClass>(cls)) + "." +
           leaf;
}

/** Names for the per-class row-buffer outcome arrays. */
std::string
rowBufKey(std::size_t cls, const char *leaf)
{
    return std::string("sim.rowbuf.") +
           trafficClassName(static_cast<TrafficClass>(cls)) + "." +
           leaf;
}

struct Encoder
{
    std::vector<std::pair<std::string, double>> out;

    void
    put(const std::string &name, double value)
    {
        out.emplace_back(name, value);
    }

    void
    putPrefetcher(const std::string &prefix,
                  const PrefetcherStats &stats)
    {
        put(prefix + ".issued", static_cast<double>(stats.issued));
        put(prefix + ".useful", static_cast<double>(stats.useful));
        put(prefix + ".partial", static_cast<double>(stats.partial));
        put(prefix + ".erroneous",
            static_cast<double>(stats.erroneous));
        put(prefix + ".redundant",
            static_cast<double>(stats.redundant));
        put(prefix + ".rejected", static_cast<double>(stats.rejected));
    }
};

struct Decoder
{
    std::unordered_map<std::string, double> values;

    double
    get(const std::string &name) const
    {
        auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }

    std::uint64_t
    getU64(const std::string &name) const
    {
        // Guard the double->uint64 cast: negative/NaN/huge values in
        // a hand-damaged record must not hit UB.
        const double value = get(name);
        if (!(value >= 0.0))
            return 0;
        if (value >= 18446744073709549568.0)  // Max double < 2^64.
            return UINT64_MAX;
        return static_cast<std::uint64_t>(value);
    }

    /**
     * A vector length from disk: must be a non-negative integer no
     * larger than @p max, else nullopt — a corrupt record must fail
     * decoding (and trigger re-simulation), not drive an allocation.
     */
    std::optional<std::size_t>
    getCount(const std::string &name, double max) const
    {
        const double value = get(name);
        if (!(value >= 0.0) || value > max ||
            value != std::floor(value))
            return std::nullopt;
        return static_cast<std::size_t>(value);
    }

    void
    getPrefetcher(const std::string &prefix,
                  PrefetcherStats &stats) const
    {
        stats.issued = getU64(prefix + ".issued");
        stats.useful = getU64(prefix + ".useful");
        stats.partial = getU64(prefix + ".partial");
        stats.erroneous = getU64(prefix + ".erroneous");
        stats.redundant = getU64(prefix + ".redundant");
        stats.rejected = getU64(prefix + ".rejected");
    }
};

/** The StmsStats counters, named once for both directions
 *  (@p stats may be const for encoding, mutable for decoding). */
template <typename Stats, typename Fn>
void
forEachStmsCounter(Stats &stats, Fn &&fn)
{
    fn("logged", stats.logged);
    fn("history_block_writes", stats.historyBlockWrites);
    fn("lookups", stats.lookups);
    fn("lookup_hits", stats.lookupHits);
    fn("stale_pointers", stats.stalePointers);
    fn("lookups_suppressed", stats.lookupsSuppressed);
    fn("lookups_ignored", stats.lookupsIgnored);
    fn("streams_started", stats.streamsStarted);
    fn("streams_ended", stats.streamsEnded);
    fn("streams_replaced", stats.streamsReplaced);
    fn("end_marks_written", stats.endMarksWritten);
    fn("pauses", stats.pauses);
    fn("resumes", stats.resumes);
    fn("skip_aheads", stats.skipAheads);
    fn("followed", stats.followed);
    fn("consumed", stats.consumed);
    fn("pump_break_room", stats.pumpBreakRoom);
    fn("pump_break_window", stats.pumpBreakWindow);
    fn("pump_break_outstanding", stats.pumpBreakOutstanding);
    fn("pump_break_pause", stats.pumpBreakPause);
    fn("queue_dry", stats.queueDry);
}

} // namespace

std::vector<std::pair<std::string, double>>
encodeRunOutput(const RunOutput &output)
{
    Encoder enc;
    enc.put("codec", kRunCodecVersion);

    const SimResult &sim = output.sim;
    enc.put("sim.cycles", static_cast<double>(sim.cycles));
    enc.put("sim.instructions",
            static_cast<double>(sim.instructions));
    enc.put("sim.ipc", sim.ipc);

    enc.put("sim.mem.accesses",
            static_cast<double>(sim.mem.accesses));
    enc.put("sim.mem.l1_hits", static_cast<double>(sim.mem.l1Hits));
    enc.put("sim.mem.prefetch_hits",
            static_cast<double>(sim.mem.prefetchHits));
    enc.put("sim.mem.l2_hits", static_cast<double>(sim.mem.l2Hits));
    enc.put("sim.mem.partial_misses",
            static_cast<double>(sim.mem.partialMisses));
    enc.put("sim.mem.offchip_reads",
            static_cast<double>(sim.mem.offchipReads));
    enc.put("sim.mem.offchip_writes",
            static_cast<double>(sim.mem.offchipWrites));

    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        enc.put(trafficKey(cls, "requests"),
                static_cast<double>(sim.traffic.requests[cls]));
        enc.put(trafficKey(cls, "bytes"),
                static_cast<double>(sim.traffic.bytes[cls]));
    }
    enc.put("sim.traffic.high_prio",
            static_cast<double>(sim.traffic.highPrioRequests));
    enc.put("sim.traffic.low_prio",
            static_cast<double>(sim.traffic.lowPrioRequests));
    enc.put("sim.traffic.busy_cycles",
            static_cast<double>(sim.traffic.busyCycles));

    enc.put("sim.mlp.count",
            static_cast<double>(sim.mlpPerCore.size()));
    for (std::size_t i = 0; i < sim.mlpPerCore.size(); ++i)
        enc.put("sim.mlp." + std::to_string(i), sim.mlpPerCore[i]);
    enc.put("sim.mean_mlp", sim.meanMlp);

    enc.put("sim.pf.count",
            static_cast<double>(sim.prefetchers.size()));
    for (std::size_t i = 0; i < sim.prefetchers.size(); ++i)
        enc.putPrefetcher("sim.pf." + std::to_string(i),
                          sim.prefetchers[i]);

    enc.put("sim.mem_utilization", sim.memUtilization);

    // Backend-specific scalars are sparse (zero values implicit, one
    // channel implicit) so records written by the default fixed
    // backend stay byte-identical to the pre-backend codec.
    if (sim.memChannels != 1) {
        enc.put("sim.mem_channels",
                static_cast<double>(sim.memChannels));
    }
    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        if (sim.rowBuffer.hits[cls] != 0) {
            enc.put(rowBufKey(cls, "hits"),
                    static_cast<double>(sim.rowBuffer.hits[cls]));
        }
        if (sim.rowBuffer.empties[cls] != 0) {
            enc.put(rowBufKey(cls, "empties"),
                    static_cast<double>(sim.rowBuffer.empties[cls]));
        }
        if (sim.rowBuffer.conflicts[cls] != 0) {
            enc.put(rowBufKey(cls, "conflicts"),
                    static_cast<double>(sim.rowBuffer.conflicts[cls]));
        }
    }

    enc.put("sim.coverage", sim.coverage);
    enc.put("sim.full_coverage", sim.fullCoverage);
    enc.put("sim.overhead_per_byte", sim.overheadPerDataByte);

    enc.putPrefetcher("stride", output.stride);
    enc.putPrefetcher("stms", output.stms);

    // StmsStats counters + the Fig. 6 stream-length histogram.
    forEachStmsCounter(output.stmsInternal,
                       [&](const char *name, const std::uint64_t &value) {
                           enc.put(std::string("stms_internal.") +
                                       name,
                                   static_cast<double>(value));
                       });
    const Log2Histogram &lengths = output.stmsInternal.streamLengths;
    enc.put("stms_internal.stream_lengths.buckets",
            static_cast<double>(lengths.numBuckets()));
    enc.put("stms_internal.stream_lengths.count",
            static_cast<double>(lengths.count()));
    enc.put("stms_internal.stream_lengths.sum",
            lengths.weightedSum());
    for (std::size_t i = 0; i < lengths.numBuckets(); ++i) {
        if (lengths.bucketCount(i) == 0)
            continue;  // Sparse: zero buckets are implicit.
        enc.put("stms_internal.stream_lengths.b" + std::to_string(i),
                static_cast<double>(lengths.bucketCount(i)));
    }

    enc.put("meta_bytes", static_cast<double>(output.stmsMetaBytes));
    enc.put("coverage", output.stmsCoverage);
    enc.put("full_coverage", output.stmsFullCoverage);
    enc.put("partial_coverage", output.stmsPartialCoverage);
    return std::move(enc.out);
}

bool
decodeRunOutput(
    const std::vector<std::pair<std::string, double>> &scalars,
    RunOutput &output, std::string &error)
{
    output = RunOutput{};
    Decoder dec;
    dec.values.reserve(scalars.size());
    for (const auto &[name, value] : scalars)
        dec.values.emplace(name, value);

    if (dec.get("codec") != kRunCodecVersion) {
        error = "run record written by an incompatible codec";
        return false;
    }

    SimResult &sim = output.sim;
    sim.cycles = dec.getU64("sim.cycles");
    sim.instructions = dec.getU64("sim.instructions");
    sim.ipc = dec.get("sim.ipc");

    sim.mem.accesses = dec.getU64("sim.mem.accesses");
    sim.mem.l1Hits = dec.getU64("sim.mem.l1_hits");
    sim.mem.prefetchHits = dec.getU64("sim.mem.prefetch_hits");
    sim.mem.l2Hits = dec.getU64("sim.mem.l2_hits");
    sim.mem.partialMisses = dec.getU64("sim.mem.partial_misses");
    sim.mem.offchipReads = dec.getU64("sim.mem.offchip_reads");
    sim.mem.offchipWrites = dec.getU64("sim.mem.offchip_writes");

    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        sim.traffic.requests[cls] =
            dec.getU64(trafficKey(cls, "requests"));
        sim.traffic.bytes[cls] = dec.getU64(trafficKey(cls, "bytes"));
    }
    sim.traffic.highPrioRequests = dec.getU64("sim.traffic.high_prio");
    sim.traffic.lowPrioRequests = dec.getU64("sim.traffic.low_prio");
    sim.traffic.busyCycles = dec.getU64("sim.traffic.busy_cycles");

    const auto num_mlp = dec.getCount("sim.mlp.count", 4096);
    if (!num_mlp) {
        error = "implausible sim.mlp.count in run record";
        return false;
    }
    sim.mlpPerCore.resize(*num_mlp);
    for (std::size_t i = 0; i < *num_mlp; ++i)
        sim.mlpPerCore[i] = dec.get("sim.mlp." + std::to_string(i));
    sim.meanMlp = dec.get("sim.mean_mlp");

    const auto num_pf = dec.getCount("sim.pf.count", 256);
    if (!num_pf) {
        error = "implausible sim.pf.count in run record";
        return false;
    }
    sim.prefetchers.resize(*num_pf);
    for (std::size_t i = 0; i < *num_pf; ++i)
        dec.getPrefetcher("sim.pf." + std::to_string(i),
                          sim.prefetchers[i]);

    sim.memUtilization = dec.get("sim.mem_utilization");

    sim.memChannels =
        static_cast<std::uint32_t>(dec.getU64("sim.mem_channels"));
    if (sim.memChannels == 0)
        sim.memChannels = 1;
    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        sim.rowBuffer.hits[cls] = dec.getU64(rowBufKey(cls, "hits"));
        sim.rowBuffer.empties[cls] =
            dec.getU64(rowBufKey(cls, "empties"));
        sim.rowBuffer.conflicts[cls] =
            dec.getU64(rowBufKey(cls, "conflicts"));
    }

    sim.coverage = dec.get("sim.coverage");
    sim.fullCoverage = dec.get("sim.full_coverage");
    sim.overheadPerDataByte = dec.get("sim.overhead_per_byte");

    dec.getPrefetcher("stride", output.stride);
    dec.getPrefetcher("stms", output.stms);

    forEachStmsCounter(output.stmsInternal,
                       [&](const char *name, std::uint64_t &value) {
                           value = dec.getU64(
                               std::string("stms_internal.") + name);
                       });
    const auto histo_buckets =
        dec.getCount("stms_internal.stream_lengths.buckets", 4096);
    if (!histo_buckets) {
        error = "implausible stream_lengths.buckets in run record";
        return false;
    }
    const std::size_t num_buckets = *histo_buckets;
    if (num_buckets >= 2) {
        std::vector<std::uint64_t> buckets(num_buckets, 0);
        for (std::size_t i = 0; i < num_buckets; ++i)
            buckets[i] =
                dec.getU64("stms_internal.stream_lengths.b" +
                           std::to_string(i));
        output.stmsInternal.streamLengths = Log2Histogram(num_buckets);
        output.stmsInternal.streamLengths.restore(
            buckets, dec.getU64("stms_internal.stream_lengths.count"),
            dec.get("stms_internal.stream_lengths.sum"));
    }

    output.stmsMetaBytes = dec.getU64("meta_bytes");
    output.stmsCoverage = dec.get("coverage");
    output.stmsFullCoverage = dec.get("full_coverage");
    output.stmsPartialCoverage = dec.get("partial_coverage");
    return true;
}

std::uint64_t
foldModelDigest(std::uint64_t digest, const std::string &id,
                const RunOutput &output)
{
    digest = fnv1a64(id.data(), id.size(), digest);
    for (const auto &[name, value] : encodeRunOutput(output)) {
        digest = fnv1a64(name.data(), name.size(), digest);
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        char bits[sizeof(double)];
        std::memcpy(bits, &value, sizeof(bits));
        digest = fnv1a64(bits, sizeof(bits), digest);
    }
    return digest;
}

} // namespace stms::results
