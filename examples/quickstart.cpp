/**
 * @file
 * Quickstart: simulate one workload on the Table-1 CMP with the STMS
 * prefetcher and print coverage, traffic, and speedup. Uses the
 * shared runTrace() entry point (src/sim/run.hh) — the same engine
 * the unified experiment driver runs on.
 *
 * Usage:
 *   quickstart [workload=oltp-db2] [records=131072] [sampling=0.125]
 *              [ideal=false]
 */

#include <cstdio>

#include "common/config.hh"
#include "driver/trace_cache.hh"
#include "sim/run.hh"
#include "workload/workloads.hh"

using namespace stms;

int
main(int argc, char **argv)
{
    Options options = Options::fromArgs(argc, argv);
    const std::string workload = options.get("workload", "oltp-db2");
    if (!isKnownWorkload(workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        std::fprintf(stderr, "known workloads:");
        for (const auto &info : standardSuite())
            std::fprintf(stderr, " %s", info.name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }

    const auto records = options.getUint("records", 128 * 1024);
    const driver::TraceCache::Handle handle =
        driver::globalTraceCache().acquire(workload, records);
    const Trace &trace = handle.trace();
    std::printf("workload %s: %llu records, %llu distinct blocks\n",
                workload.c_str(),
                static_cast<unsigned long long>(trace.totalRecords()),
                static_cast<unsigned long long>(trace.footprintBlocks()));

    // Base system: stride prefetcher only.
    RunOutput base = runTrace(trace, RunConfig{});

    // STMS on top of the base system.
    RunConfig config;
    config.stms.emplace();
    config.stms->samplingProbability =
        options.getDouble("sampling", 0.125);
    if (options.getBool("ideal", false))
        config.stms = makeIdealTmsConfig();
    RunOutput with_stms = runTrace(trace, config);

    std::printf("\n-- base system (stride only) --\n");
    std::printf("ipc           %.3f\n", base.sim.ipc);
    std::printf("offchip reads %llu\n",
                static_cast<unsigned long long>(
                    base.sim.mem.offchipReads));
    std::printf("\n-- with STMS (%s meta-data) --\n",
                config.stms->ideal ? "ideal on-chip" : "off-chip");
    std::printf("ipc           %.3f  (%+.1f%%)\n", with_stms.sim.ipc,
                100.0 * speedup(base.sim, with_stms.sim));
    std::printf("coverage      %.1f%%  (full %.1f%%, partial %.1f%%)\n",
                100.0 * with_stms.stmsCoverage,
                100.0 * with_stms.stmsFullCoverage,
                100.0 * with_stms.stmsPartialCoverage);
    std::printf("accuracy      %.1f%%\n",
                100.0 * with_stms.stms.accuracy());
    std::printf("overhead      %.2f bytes/useful byte\n",
                with_stms.sim.overheadPerDataByte);
    std::printf("meta footprint %llu bytes in main memory\n",
                static_cast<unsigned long long>(
                    with_stms.stmsMetaBytes));
    std::printf("streams: %llu started, mean mlp %.2f\n",
                static_cast<unsigned long long>(
                    with_stms.stmsInternal.streamsStarted),
                with_stms.sim.meanMlp);
    return 0;
}
