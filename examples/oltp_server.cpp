/**
 * @file
 * OLTP scenario — the workload class that motivated temporal memory
 * streaming (pointer-chasing transaction processing, Sec. 1).
 *
 * Runs the two OLTP workloads through base / idealized / practical
 * STMS configurations — three runTrace() points per workload on the
 * shared engine — and prints a capacity-planning style summary: how
 * much main-memory meta-data buys how much transaction throughput,
 * and what it costs in memory bandwidth.
 *
 * Usage: oltp_server [records=262144] [sampling=0.125] [history=1M]
 *        [index=16M]
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
    const auto records = options.getUint("records", 256 * 1024);

    StmsConfig practical;
    practical.samplingProbability = options.getDouble("sampling", 0.125);
    practical.historyEntriesPerCore =
        options.getUint("history", 1ULL << 20);
    practical.indexBytes = options.getUint("index", 16ULL << 20);

    for (const char *name : {"oltp-db2", "oltp-oracle"}) {
        const driver::TraceCache::Handle handle =
            driver::globalTraceCache().acquire(name, records);
        const Trace &trace = handle.trace();

        RunOutput base = runTrace(trace, RunConfig{});
        RunOutput magic =
            runTrace(trace, defaultSimConfig(), makeIdealTmsConfig());
        RunOutput stms =
            runTrace(trace, defaultSimConfig(), practical);

        std::printf("== %s (%llu accesses)\n", name,
                    static_cast<unsigned long long>(
                        trace.totalRecords()));
        std::printf("   base IPC %.3f (stride prefetcher only)\n",
                    base.sim.ipc);
        std::printf("   idealized TMS: IPC %.3f (%+.1f%%), coverage "
                    "%.1f%% -- needs impossible on-chip tables\n",
                    magic.sim.ipc,
                    100.0 * speedup(base.sim, magic.sim),
                    100.0 * magic.stmsCoverage);
        std::printf("   practical STMS: IPC %.3f (%+.1f%%), coverage "
                    "%.1f%%\n",
                    stms.sim.ipc, 100.0 * speedup(base.sim, stms.sim),
                    100.0 * stms.stmsCoverage);
        std::printf("   STMS meta-data: %s of main memory; traffic "
                    "overhead %.2f bytes/useful byte\n",
                    formatSize(stms.stmsMetaBytes).c_str(),
                    stms.sim.overheadPerDataByte);
        const double fraction =
            magic.sim.ipc > base.sim.ipc
                ? (stms.sim.ipc - base.sim.ipc) /
                      (magic.sim.ipc - base.sim.ipc)
                : 0.0;
        std::printf("   -> STMS delivers %.0f%% of the idealized "
                    "speedup with zero on-chip tables\n\n",
                    100.0 * fraction);
    }
    return 0;
}
