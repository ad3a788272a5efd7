/**
 * @file
 * Scientific-computing scenario (Sec. 5.3's bimodal observation).
 *
 * Scientific codes like em3d/ocean/moldyn miss on one long irregular
 * sequence per computational iteration, and that sequence repeats
 * exactly. The history buffer either holds a full iteration (coverage
 * near-perfect) or it does not (coverage negligible) — this example
 * makes that cliff visible by sweeping the history size around the
 * iteration length, one functional-mode runTrace() point per size.
 *
 * Usage: scientific_iteration [workload=sci-ocean] [records=262144]
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
    const std::string name = options.get("workload", "sci-ocean");
    if (!isKnownWorkload(name)) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 1;
    }
    const auto records = options.getUint("records", 256 * 1024);
    const WorkloadSpec spec = makeWorkload(name, records);
    const driver::TraceCache::Handle handle =
        driver::globalTraceCache().acquire(name, records);
    const Trace &trace = handle.trace();

    std::printf("%s: iteration stream of %u blocks per core "
                "(plus %0.f%% noise/on-chip work)\n\n",
                name.c_str(), spec.minStreamLen,
                100.0 * (spec.noiseFraction + spec.hotFraction));
    std::printf("%-18s %-12s %s\n", "history(entries)", "coverage",
                "verdict");

    // Sweep history capacity around the iteration length.
    const std::uint64_t iteration = spec.minStreamLen;
    const std::uint64_t points[] = {
        iteration / 8, iteration / 4, iteration / 2,
        (iteration * 3) / 4, iteration + iteration / 4,
        iteration * 2, iteration * 4};

    for (std::uint64_t entries : points) {
        StmsConfig config = makeIdealTmsConfig();
        config.historyEntriesPerCore = entries;
        // Trace-based coverage run: functional memory timing.
        RunOutput out =
            runTrace(trace, defaultSimConfig(true), config);
        std::printf("%-18llu %-12.1f %s\n",
                    static_cast<unsigned long long>(entries),
                    100.0 * out.stmsCoverage,
                    entries > iteration
                        ? "holds a full iteration -> streams"
                        : "iteration does not fit -> blind");
    }

    std::printf("\nThe cliff sits at one iteration's miss footprint "
                "(Sec. 5.3: coverage for\nscientific workloads is "
                "bimodal in history-buffer size).\n");
    return 0;
}
