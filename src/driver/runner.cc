#include "driver/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/arena.hh"
#include "common/log.hh"
#include "driver/bounded_queue.hh"
#include "driver/chunk_stream.hh"
#include "telemetry/trace_writer.hh"
#include "workload/workloads.hh"

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

bool
resetPeakRss()
{
    // The run arena retains its blocks across runs by design (warm
    // reuse); for the same double-counting reason as malloc_trim
    // below, release this thread's cached run arena so a later phase
    // running on *other* threads is not floored by it.
    trimThreadRunArena();
#ifdef __GLIBC__
    // Return freed heap to the kernel first: malloc retains freed
    // pages in its arenas, so without the trim the watermark resets
    // to the previous phase's near-peak RSS and a later phase that
    // allocates from *new* threads (fresh arenas) double-counts that
    // retained floor on top of its own footprint.
    malloc_trim(0);
#endif
    // Writing "5" to clear_refs resets VmHWM to the *current* RSS, so
    // a measurement taken after this isolates one phase's high-water
    // mark instead of inheriting every earlier allocation's. Linux
    // only, and some sandboxes deny the write — callers must treat
    // false as "peak is still the process-lifetime value".
    std::ofstream clear("/proc/self/clear_refs");
    if (!clear.is_open())
        return false;
    clear << "5";
    clear.flush();
    return clear.good();
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
    const std::uint64_t sample_every =
        config_.sampleEvery != 0 ? config_.sampleEvery
                                 : telemetry::globalSampleEvery();
    if (sample_every != 0) {
        for (RunSpec &spec : plan)
            spec.config.sim.sampleEvery = sample_every;
    }

    ExecStats local;
    local.planned = plan.size();

    std::vector<RunOutput> outputs(plan.size());
    std::vector<RunTiming> timings(plan.size());

    // --- Stage bodies -------------------------------------------------

    // acquire: pin the synthetic trace (generating on first use).
    // Ingest runs open their readers in the simulate stage instead, so
    // the one-bounded-chunk-per-lane residency guarantee starts only
    // when the run actually executes.
    auto acquireOne = [&](std::size_t index) -> TraceCache::Handle {
        const RunSpec &spec = plan[index];
        if (spec.ingest)
            return TraceCache::Handle();
        telemetry::ScopedSpan span("stage", "acquire", spec.id);
        const Clock::time_point start = Clock::now();
        TraceCache::Handle handle =
            traces_.acquire(spec.workload, spec.records);
        timings[index].acquireSeconds = secondsSince(start);
        return handle;
    };

    // simulate: one isolated System/EventQueue per run.
    auto simulateOne = [&](std::size_t index,
                           TraceCache::Handle handle) {
        const RunSpec &spec = plan[index];
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
            timings[index].acquireSeconds = secondsSince(open_start);
            telemetry::ScopedSpan span("stage", "simulate", spec.id);
            const Clock::time_point start = Clock::now();
            outputs[index] = runTrace(*source, spec.config);
            timings[index].simulateSeconds = secondsSince(start);
            // A streaming source may not know its length up front
            // (ChampSim through a decompressor pipe reports 0); the
            // simulated access count is the records actually driven.
            timings[index].records = source->totalRecords();
            if (timings[index].records == 0)
                timings[index].records =
                    outputs[index].sim.mem.accesses;
        } else {
            timings[index].records = handle.trace().totalRecords();
            telemetry::ScopedSpan span("stage", "simulate", spec.id);
            const Clock::time_point start = Clock::now();
            outputs[index] = runTrace(handle.trace(), spec.config);
            timings[index].simulateSeconds = secondsSince(start);
        }
        stms_debug("[%s] run %zu/%zu done: %s",
                   experiment.name().c_str(), index + 1, plan.size(),
                   spec.id.c_str());
    };

    // --- Schedules ----------------------------------------------------

    const std::size_t workers = std::min<std::size_t>(
        std::max<std::uint32_t>(resolvedThreads_, 1), plan.size());

    // Report the execution actually used, not the one requested: a
    // <= 1-run plan degenerates to fan-out, and the pool never
    // exceeds the plan.
    const bool pipelined = config_.pipeline && plan.size() > 1;
    local.pipelined = pipelined;
    local.threadsResolved =
        static_cast<std::uint32_t>(std::max<std::size_t>(workers, 1));

    telemetry::ProgressMeter progress(
        telemetry::progressEnabled(config_.progress) && !plan.empty(),
        experiment.name(), plan.size(), local.threadsResolved);

    // The end of a run, on whichever thread simulated it: close its
    // lifecycle span, flush this thread's spans, tick the meter.
    auto finishOne = [&](std::size_t index) {
        traceRunEnd(index, plan[index].id);
        flushTraceThread();
        progress.noteRun(timings[index].records,
                         timings[index].acquireSeconds,
                         timings[index].simulateSeconds);
    };

    if (!pipelined) {
        // Fan-out: each worker runs both stages back to back.
        auto executeOne = [&](std::size_t index) {
            traceRunBegin(index, plan[index].id);
            simulateOne(index, acquireOne(index));
            finishOne(index);
        };
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
                    std::snprintf(label, sizeof(label), "worker-%zu",
                                  w);
                    nameTraceThread(label);
                    for (std::size_t i = next.fetch_add(1);
                         i < plan.size(); i = next.fetch_add(1)) {
                        executeOne(i);
                    }
                });
            }
            for (auto &thread : pool)
                thread.join();
        }
    } else {
        // Pipelined: stages exchange bounded record chunks, never
        // whole traces. The acquire stage opens a ChunkedWorkloadSource
        // per synthetic run — its producer thread generates lane
        // chunks ahead of the simulator, paced by per-lane bounded
        // queues — and hands sources (not traces) to the simulator
        // pool over a bounded run-lookahead queue. Each simulator
        // ends its own runs. Residency is therefore (runs in flight)
        // x lanes x O(1) chunks, independent of trace length; ingest
        // runs keep their existing bounded streaming path inside
        // simulateOne.
        const std::uint64_t chunk_records =
            config_.pipelineChunkRecords != 0
                ? config_.pipelineChunkRecords
                : kDefaultPipelineChunkRecords;
        local.chunkRecords = chunk_records;
        ChunkAccounting chunk_accounting;

        struct AcquiredRun
        {
            std::size_t index;
            std::unique_ptr<ChunkedWorkloadSource> source;
        };
        // Run lookahead is a residency multiplier, not a throughput
        // one: every queued source has a live producer thread holding
        // lanes x O(1) chunks, so capacity here scales peak RSS with
        // the worker count. One spare run is enough to keep the
        // simulators from ever waiting on acquire.
        BoundedQueue<AcquiredRun> acquired(2);
        acquired.instrument("queue.acquired");

        std::thread acquirer([&] {
            nameTraceThread("acquire");
            for (std::size_t index = 0; index < plan.size(); ++index) {
                const RunSpec &spec = plan[index];
                traceRunBegin(index, spec.id);
                AcquiredRun item{index, nullptr};
                if (!spec.ingest) {
                    // The span covers opening the stream (the bulk of
                    // acquire cost — generation — lands on the
                    // producer thread as "generate" spans).
                    telemetry::ScopedSpan span("stage", "acquire",
                                               spec.id);
                    item.source =
                        std::make_unique<ChunkedWorkloadSource>(
                            makeWorkload(spec.workload, spec.records),
                            chunk_records, &chunk_accounting,
                            spec.id);
                }
                if (!acquired.push(std::move(item)))
                    break;
            }
            acquired.close();
            flushTraceThread();
        });

        std::vector<std::thread> simulators;
        simulators.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            simulators.emplace_back([&, w] {
                char label[32];
                std::snprintf(label, sizeof(label), "simulate-%zu",
                              w);
                nameTraceThread(label);
                while (auto item = acquired.pop()) {
                    const std::size_t index = item->index;
                    if (item->source) {
                        timings[index].records =
                            item->source->totalRecords();
                        telemetry::ScopedSpan span("stage",
                                                   "simulate",
                                                   plan[index].id);
                        const Clock::time_point start = Clock::now();
                        outputs[index] =
                            runTrace(*item->source,
                                     plan[index].config);
                        timings[index].simulateSeconds =
                            secondsSince(start);
                        // Generation ran on the producer thread,
                        // overlapped with simulation; report it as
                        // this run's acquire cost.
                        timings[index].acquireSeconds =
                            item->source->produceSeconds();
                        timings[index].peakResidentChunks =
                            item->source->peakResidentChunks();
                        item->source.reset();
                        stms_debug("[%s] run %zu/%zu done: %s",
                                   experiment.name().c_str(),
                                   index + 1, plan.size(),
                                   plan[index].id.c_str());
                    } else {
                        simulateOne(index, TraceCache::Handle());
                    }
                    finishOne(index);
                }
            });
        }

        acquirer.join();
        for (auto &thread : simulators)
            thread.join();
        local.peakResidentChunks = chunk_accounting.peak.load();
    }

    progress.finish();
    flushTraceThread();

    // Fold per-run timings (plan order) into the stats. Sampled
    // series move out of the outputs here: they are timing-style
    // observations, reported under the timing key and never part of
    // the model output RunSet/report consumers see.
    local.sampleEvery = sample_every;
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
