#include "sim/run.hh"

#include "common/arena.hh"
#include "prefetch/stride.hh"

namespace stms
{

SimConfig
defaultSimConfig(bool functional)
{
    SimConfig config;  // Defaults already copy Table 1.
    config.memory.mem.functional = functional;
    if (functional) {
        // Trace-based mode: timing out of the picture, coverage only.
        config.memory.l1Latency = 0;
        config.memory.l2Latency = 0;
        config.memory.prefetchBufLatency = 0;
    }
    return config;
}

RunOutput
runTrace(const Trace &trace, const RunConfig &run_config)
{
    trace_io::MemoryTraceSource source(trace);
    return runTrace(source, run_config);
}

RunOutput
runTrace(trace_io::TraceSource &source, const RunConfig &run_config)
{
    // Every run's short-lived structures (bucket stores, history
    // buffers, MSHR maps, issued sets) bump-allocate from this
    // thread's run arena; the outermost scope resets it on exit, so
    // back-to-back runs in a sweep reuse the same blocks instead of
    // hitting the global allocator, which `--threads N` workers would
    // otherwise serialize on. RunOutput holds only plain values, so
    // nothing arena-backed escapes the scope.
    ScopedRunArena arena_scope;
    SimConfig config = run_config.sim;
    config.warmupRecords = static_cast<std::uint64_t>(
        run_config.warmupFraction *
        static_cast<double>(source.totalRecords()));

    CmpSystem system(config, source);
    StridePrefetcher stride;
    system.addPrefetcher(&stride);

    std::optional<CorrelationPrefetcher> correlation;
    if (run_config.correlation) {
        correlation.emplace(*run_config.correlation);
        system.addPrefetcher(&*correlation);
    }

    std::optional<StmsPrefetcher> stms;
    if (run_config.stms) {
        stms.emplace(*run_config.stms);
        system.addPrefetcher(&*stms);
    }

    RunOutput out;
    out.sim = system.run();
    out.stride = out.sim.prefetchers.at(0);
    if (stms) {
        // STMS is the last registered prefetcher.
        out.stms = out.sim.prefetchers.back();
        out.stmsInternal = stms->stats();
        out.stmsMetaBytes = stms->metaFootprintBytes();
        const double full = static_cast<double>(out.stms.useful);
        const double partial = static_cast<double>(out.stms.partial);
        const double uncovered =
            static_cast<double>(out.sim.mem.offchipReads);
        const double denom = full + partial + uncovered;
        if (denom > 0) {
            out.stmsCoverage = (full + partial) / denom;
            out.stmsFullCoverage = full / denom;
            out.stmsPartialCoverage = partial / denom;
        }
    }
    return out;
}

RunOutput
runTrace(const Trace &trace, const SimConfig &sim_config,
         const std::optional<StmsConfig> &stms_config,
         double warmup_fraction)
{
    RunConfig config;
    config.sim = sim_config;
    config.stms = stms_config;
    config.warmupFraction = warmup_fraction;
    return runTrace(trace, config);
}

double
speedup(const SimResult &base, const SimResult &opt)
{
    if (base.ipc <= 0.0)
        return 0.0;
    return opt.ipc / base.ipc - 1.0;
}

double
usefulBaseBytes(const SimResult &result)
{
    double useful = static_cast<double>(
        result.traffic.bytesFor(TrafficClass::DemandRead) +
        result.traffic.bytesFor(TrafficClass::DemandWriteback));
    for (const auto &pf : result.prefetchers)
        useful += static_cast<double>(pf.useful + pf.partial) *
                  kBlockBytes;
    return useful;
}

double
overheadPerBaseByte(const RunOutput &out)
{
    const auto &traffic = out.sim.traffic;
    const double useful = usefulBaseBytes(out.sim);
    double overhead = static_cast<double>(
        traffic.bytesFor(TrafficClass::MetaLookup) +
        traffic.bytesFor(TrafficClass::MetaUpdate) +
        traffic.bytesFor(TrafficClass::MetaRecord));
    for (const auto &pf : out.sim.prefetchers)
        overhead += static_cast<double>(pf.erroneous) * kBlockBytes;
    return useful > 0.0 ? overhead / useful : 0.0;
}

} // namespace stms
