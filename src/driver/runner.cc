#include "driver/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/log.hh"
#include "telemetry/trace_writer.hh"

namespace stms::driver
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Name the calling thread's trace track (no-op when tracing off). */
void
nameTraceThread(const char *name)
{
    if (telemetry::TraceSink *sink = telemetry::traceSink())
        sink->threadName(name);
}

/** Flush the calling thread's span buffer (run-boundary contract). */
void
flushTraceThread()
{
    if (telemetry::TraceSink *sink = telemetry::traceSink())
        sink->flushCurrentThread();
}

/** Open/close the run-lifecycle async span (cat "run", id = plan
 *  index). Begin and end may run on different threads — exactly what
 *  the b/e async phases exist for. */
void
traceRunBegin(std::size_t index, const std::string &id)
{
    if (telemetry::TraceSink *sink = telemetry::traceSink())
        sink->asyncBegin("run", index, id);
}

void
traceRunEnd(std::size_t index, const std::string &id)
{
    if (telemetry::TraceSink *sink = telemetry::traceSink())
        sink->asyncEnd("run", index, id);
}

} // namespace

std::uint64_t
peakRssKb()
{
    // VmHWM is exact on Linux; ru_maxrss is the portable fallback.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#ifdef __APPLE__
        // ru_maxrss is bytes on macOS, KiB elsewhere.
        return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
    }
    return 0;
}

ExperimentRunner::ExperimentRunner(TraceCache &traces,
                                   RunnerConfig config)
    : traces_(traces), config_(config)
{
    // threads == 0 auto-detects. The resolved count is execution
    // metadata only — it never reaches plans or options, so model
    // output stays thread-count-independent.
    resolvedThreads_ = config_.threads;
    if (resolvedThreads_ == 0) {
        resolvedThreads_ = std::thread::hardware_concurrency();
        if (resolvedThreads_ == 0)
            resolvedThreads_ = 1;
    }
}

RunSet
ExperimentRunner::execute(const Experiment &experiment,
                          const Options &options,
                          ExecStats *stats) const
{
    const Clock::time_point wall_start = Clock::now();
    std::vector<RunSpec> plan = experiment.plan(options);

    // Cross-cutting knobs apply here, after plan(), so every
    // experiment honors them without threading them through each
    // definition. --mem-backend swaps the memory timing model under
    // every run, except runs that pinned their backend
    // (mem_tech_sweep plans one run per backend; a global override
    // must not collapse that sweep onto a single model).
    if (const auto backend = plannedMemBackend(options)) {
        for (RunSpec &spec : plan) {
            if (!spec.config.sim.memory.backendPinned)
                spec.config.sim.memory.backend = *backend;
        }
    }

    // Telemetry sampling rides the same chokepoint — but NOT the
    // Options store: the epoch is observation, not configuration.
    // Probes only read counters, so model output is untouched (the
    // telemetry determinism tests byte-compare exactly that).
    if (config_.sampleEvery != 0) {
        for (RunSpec &spec : plan)
            spec.config.sim.sampleEvery = config_.sampleEvery;
    }

    ExecStats local;
    local.planned = plan.size();

    std::vector<RunOutput> outputs(plan.size());
    std::vector<RunTiming> timings(plan.size());

    const std::size_t workers = std::min<std::size_t>(
        std::max<std::uint32_t>(resolvedThreads_, 1), plan.size());
    local.threadsResolved =
        static_cast<std::uint32_t>(std::max<std::size_t>(workers, 1));

    telemetry::ProgressMeter progress(
        telemetry::progressEnabled(config_.progress) && !plan.empty(),
        experiment.name(), plan.size(), local.threadsResolved);

    // One run, both stages back to back on the calling thread.
    auto executeOne = [&](std::size_t index) {
        const RunSpec &spec = plan[index];
        RunTiming &timing = timings[index];
        traceRunBegin(index, spec.id);
        if (spec.ingest) {
            // Ingested traces stream per run — a fresh reader per
            // RunSpec, one bounded chunk per lane resident — and
            // never enter the TraceCache.
            const Clock::time_point open_start = Clock::now();
            std::string error;
            std::unique_ptr<trace_io::TraceSource> source;
            {
                telemetry::ScopedSpan span("stage", "acquire",
                                           spec.id);
                source = trace_io::openSource(*spec.ingest, error);
            }
            if (!source) {
                stms_fatal("run '%s': %s", spec.id.c_str(),
                           error.c_str());
            }
            timing.acquireSeconds = secondsSince(open_start);
            telemetry::ScopedSpan span("stage", "simulate", spec.id);
            const Clock::time_point start = Clock::now();
            outputs[index] = runTrace(*source, spec.config);
            timing.simulateSeconds = secondsSince(start);
            // A streaming source may not know its length up front
            // (ChampSim through a decompressor pipe reports 0); the
            // simulated access count is the records actually driven.
            timing.records = source->totalRecords();
            if (timing.records == 0)
                timing.records = outputs[index].sim.mem.accesses;
        } else {
            TraceCache::Handle handle;
            {
                telemetry::ScopedSpan span("stage", "acquire",
                                           spec.id);
                const Clock::time_point start = Clock::now();
                handle = traces_.acquire(spec.workload, spec.records);
                timing.acquireSeconds = secondsSince(start);
            }
            timing.records = handle.trace().totalRecords();
            telemetry::ScopedSpan span("stage", "simulate", spec.id);
            const Clock::time_point start = Clock::now();
            outputs[index] = runTrace(handle.trace(), spec.config);
            timing.simulateSeconds = secondsSince(start);
        }
        stms_debug("[%s] run %zu/%zu done: %s",
                   experiment.name().c_str(), index + 1, plan.size(),
                   spec.id.c_str());
        traceRunEnd(index, spec.id);
        flushTraceThread();
        progress.noteRun(timing.records, timing.acquireSeconds,
                         timing.simulateSeconds);
    };

    // Fan-out: a pool that never exceeds the plan pulls runs in plan
    // order.
    if (workers <= 1) {
        for (std::size_t index = 0; index < plan.size(); ++index)
            executeOne(index);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&, w] {
                char label[32];
                std::snprintf(label, sizeof(label), "worker-%zu", w);
                nameTraceThread(label);
                for (std::size_t i = next.fetch_add(1); i < plan.size();
                     i = next.fetch_add(1)) {
                    executeOne(i);
                }
            });
        }
        for (auto &thread : pool)
            thread.join();
    }

    progress.finish();
    flushTraceThread();

    // Fold per-run timings (plan order) into the stats. Sampled
    // series move out of the outputs here: they are timing-style
    // observations, reported under the timing key and never part of
    // the model output RunSet/report consumers see.
    local.sampleEvery = config_.sampleEvery;
    for (std::size_t index = 0; index < plan.size(); ++index) {
        RunTiming &timing = timings[index];
        timing.id = plan[index].id;
        timing.wallSeconds =
            timing.acquireSeconds + timing.simulateSeconds;
        timing.samples = std::move(outputs[index].sim.samples);
        outputs[index].sim.samples = telemetry::SampleSeries();
        if (local.sampleColumns.empty() &&
            !timing.samples.columns.empty())
            local.sampleColumns = timing.samples.columns;
        local.acquireSeconds += timing.acquireSeconds;
        local.simulateSeconds += timing.simulateSeconds;
        local.recordsProcessed += timing.records;
        local.runs.push_back(std::move(timing));
    }
    local.wallSeconds = secondsSince(wall_start);

    RunSet runs;
    for (std::size_t i = 0; i < plan.size(); ++i)
        runs.add(plan[i].id, std::move(outputs[i]));
    if (stats)
        *stats = local;
    return runs;
}

Report
ExperimentRunner::run(const Experiment &experiment,
                      const Options &options, ExecStats *stats) const
{
    return experiment.report(options,
                             execute(experiment, options, stats));
}

} // namespace stms::driver
