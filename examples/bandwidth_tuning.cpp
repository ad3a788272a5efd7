/**
 * @file
 * Bandwidth-tuning scenario — picking the sampling probability.
 *
 * The central practicality trade-off of the paper: index-update
 * traffic is directly proportional to the sampling probability, while
 * coverage decays only logarithmically as updates are dropped
 * (Sec. 4.4, Fig. 8). This example sweeps the probability on one
 * workload under full timing — one runTrace() point per probability —
 * so the bandwidth interaction (meta-data competing with demand
 * fetches) is visible in IPC, and reports the knee.
 *
 * Usage: bandwidth_tuning [workload=web-apache] [records=262144]
 */

#include <cstdio>
#include <vector>

#include "common/config.hh"
#include "driver/trace_cache.hh"
#include "sim/run.hh"
#include "workload/workloads.hh"

using namespace stms;

int
main(int argc, char **argv)
{
    Options options = Options::fromArgs(argc, argv);
    const std::string name = options.get("workload", "web-apache");
    if (!isKnownWorkload(name)) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 1;
    }
    const auto records = options.getUint("records", 256 * 1024);
    const driver::TraceCache::Handle handle =
        driver::globalTraceCache().acquire(name, records);
    const Trace &trace = handle.trace();

    RunOutput base = runTrace(trace, RunConfig{});
    std::printf("%s, base IPC %.3f, memory utilization %.0f%%\n\n",
                name.c_str(), base.sim.ipc,
                100.0 * base.sim.memUtilization);
    std::printf("%-10s %-8s %-10s %-10s %-10s %s\n", "sampling",
                "ipc", "speedup", "coverage", "overhead", "mem-util");

    double best_ipc = 0.0;
    double best_p = 0.0;
    for (double p : std::vector<double>{1.0, 0.5, 0.25, 0.125, 0.0625,
                                        0.03125}) {
        RunConfig config;
        config.stms.emplace();
        config.stms->samplingProbability = p;
        RunOutput out = runTrace(trace, config);
        std::printf("%-10.4f %-8.3f %-10.1f %-10.1f %-10.2f %.0f%%\n",
                    p, out.sim.ipc,
                    100.0 * speedup(base.sim, out.sim),
                    100.0 * out.stmsCoverage,
                    out.sim.overheadPerDataByte,
                    100.0 * out.sim.memUtilization);
        if (out.sim.ipc > best_ipc) {
            best_ipc = out.sim.ipc;
            best_p = p;
        }
    }
    std::printf("\nBest IPC at sampling probability %.4f "
                "(the paper picks 0.125 as the balance\npoint across "
                "its suite, Sec. 5.6). Note how 100%% sampling can "
                "LOSE performance\nwhen update traffic crowds out "
                "demand fetches.\n", best_p);
    return 0;
}
