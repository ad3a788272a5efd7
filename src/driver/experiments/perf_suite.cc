/**
 * @file
 * Experiment "perf_suite" — the simulator's own throughput, tracked
 * as a first-class, regression-gated metric.
 *
 * Runs a pinned sweep (the fig7 plan — the full standard suite at
 * both index-update samplings, functional mode) through the run
 * scheduler in two schedules:
 *
 *   serial     --threads 1, no pipeline — the reference schedule
 *              every determinism gate is defined against;
 *   pipelined  --pipeline with a small worker pool — trace
 *              generation overlapping simulation over bounded
 *              queues.
 *
 * and reports records/sec, per-stage wall time, and peak RSS for
 * each. This is a measurement harness: plan() is empty and the work
 * happens in report() on real host threads.
 *
 * Determinism is gated where the numbers are made: the encoded
 * RunOutput scalars of every run must be bit-identical across the
 * two schedules (asserted in-binary), and the digest over them is
 * reported as model_digest_hi/lo so CI can compare across
 * invocations. Only the *_s / *_per_sec / *_kb / *_ratio timing
 * metrics vary run to run; gates exclude them (docs/PERF.md).
 */

#include <algorithm>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "driver/experiments/builtins.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "results/run_codec.hh"

namespace stms::driver
{
namespace
{

/** Adapter handing a prebuilt plan to an ExperimentRunner. */
class PinnedSweep final : public ExperimentBase
{
  public:
    PinnedSweep(std::string name, std::vector<RunSpec> plan)
        : ExperimentBase(std::move(name), "perf_suite pinned sweep"),
          plan_(std::move(plan))
    {}

    std::vector<RunSpec>
    plan(const Options &) const override
    {
        return plan_;
    }

    Report
    report(const Options &, const RunSet &) const override
    {
        return Report(name());  // The harness reads outputs directly.
    }

  private:
    std::vector<RunSpec> plan_;
};

/** One schedule's measurement. */
struct ModeResult
{
    ExecStats stats;
    std::uint64_t digest = 0;
    std::uint64_t peakRssKb = 0;
    /** Whether the kernel watermark was reset before this mode ran —
     *  when true, peakRssKb is this schedule's own high-water mark,
     *  not the process-lifetime one. */
    bool rssIsolated = false;
};

class PerfSuite final : public ExperimentBase
{
  public:
    PerfSuite()
        : ExperimentBase("perf_suite",
                         "simulator throughput on a pinned sweep: "
                         "records/sec + stage timings, serial vs "
                         "pipelined (determinism-gated)")
    {}

    std::vector<RunSpec>
    plan(const Options &) const override
    {
        // A host-side measurement harness: the sweeps run inside
        // report() with their own runners.
        return {};
    }

    Report
    report(const Options &options, const RunSet &) const override
    {
        const Experiment *fig7 =
            ExperimentRegistry::global().find("fig7");
        stms_assert(fig7 != nullptr,
                    "perf_suite needs the fig7 experiment");

        // Pin the sweep: fig7's plan at 64Ki records/core unless the
        // caller overrides. The pinned defaults are what BENCH_*.json
        // trajectories compare across commits (docs/PERF.md).
        Options sweep_options = options;
        if (!sweep_options.has("records"))
            sweep_options.set("records", "65536");
        const std::uint32_t pipeline_threads = static_cast<
            std::uint32_t>(options.getUint("threads", 2));

        const std::vector<RunSpec> plan = fig7->plan(sweep_options);
        std::uint64_t plan_records = 0;
        PinnedSweep sweep("perf_sweep", plan);

        auto runMode = [&](bool pipelined) {
            // A fresh cache per mode: generation cost is part of the
            // measured pipeline (it is exactly what the pipelined
            // schedule overlaps with simulation).
            TraceCache cache;
            RunnerConfig config;
            config.threads = pipelined ? pipeline_threads : 1;
            config.pipeline = pipelined;
            config.pipelineChunkRecords =
                options.getUint("pipeline-chunk", 0);
            ExperimentRunner runner(cache, config);
            ModeResult result;
            // Isolate this schedule's RSS high-water mark so the
            // pipeline-vs-serial comparison is honest: without the
            // reset, whichever mode runs second inherits the first's
            // peak and the RSS gate (docs/PERF.md) measures nothing.
            result.rssIsolated = resetPeakRss();
            const RunSet runs =
                runner.execute(sweep, sweep_options, &result.stats);
            result.digest = kFnv1aOffset;
            for (const RunSpec &spec : plan) {
                result.digest = results::foldModelDigest(
                    result.digest, spec.id, runs.at(spec.id));
            }
            result.peakRssKb = peakRssKb();
            return result;
        };

        const ModeResult serial = runMode(false);
        const ModeResult pipelined = runMode(true);
        plan_records = serial.stats.recordsProcessed;

        // The determinism gate, enforced where the numbers are made:
        // the pipelined schedule must reproduce the serial model
        // output bit for bit.
        stms_assert(pipelined.digest == serial.digest,
                    "pipelined sweep diverged from serial "
                    "(digest %016llx != %016llx)",
                    static_cast<unsigned long long>(pipelined.digest),
                    static_cast<unsigned long long>(serial.digest));
        stms_assert(pipelined.stats.recordsProcessed == plan_records,
                    "pipelined sweep processed a different record "
                    "count");

        Report out(name());

        // Model metrics (bit-identical across schedules; CI gates on
        // these). The 64-bit digest is split so each half is exact in
        // a double.
        out.addMetric("runs", static_cast<double>(plan.size()));
        out.addMetric("records", static_cast<double>(plan_records));
        out.addMetric("model_digest_hi",
                      static_cast<double>(serial.digest >> 32));
        out.addMetric("model_digest_lo",
                      static_cast<double>(serial.digest &
                                          0xffffffffULL));

        // Timing metrics (wall-clock noise; excluded from gates).
        Table table({"schedule", "threads", "records/s", "wall s",
                     "acquire s", "simulate s", "peak RSS MB"});
        auto addMode = [&](const char *mode, const ModeResult &r) {
            const ExecStats &s = r.stats;
            const std::string prefix = mode;
            out.addMetric(prefix + ".records_per_sec",
                          s.recordsPerSecond());
            out.addMetric(prefix + ".wall_s", s.wallSeconds);
            out.addMetric(prefix + ".acquire_s", s.acquireSeconds);
            out.addMetric(prefix + ".simulate_s", s.simulateSeconds);
            out.addMetric(prefix + ".peak_rss_kb",
                          static_cast<double>(r.peakRssKb));
            table.addRow(
                {mode, std::to_string(s.threadsResolved),
                 Table::num(s.recordsPerSecond()),
                 Table::num(s.wallSeconds),
                 Table::num(s.acquireSeconds),
                 Table::num(s.simulateSeconds),
                 Table::num(static_cast<double>(r.peakRssKb) /
                            1024.0)});
        };
        addMode("serial", serial);
        addMode("pipeline", pipelined);
        // "_ratio" marks these as timing-derived (excluded from
        // determinism gates alongside _s / _per_sec / _kb / _chunks).
        out.addMetric("pipeline_speedup_ratio",
                      pipelined.stats.recordsPerSecond() /
                          std::max(serial.stats.recordsPerSecond(),
                                   1e-9));
        out.addMetric(
            "pipeline_rss_ratio",
            static_cast<double>(pipelined.peakRssKb) /
                std::max(static_cast<double>(serial.peakRssKb), 1.0));

        // Chunked-pipeline residency telemetry. The chunk count is
        // scheduling-dependent (it varies with thread interleaving),
        // so the "_chunks" suffix keeps it out of determinism gates.
        out.addMetric("pipeline.chunk_records_chunks",
                      static_cast<double>(
                          pipelined.stats.chunkRecords));
        out.addMetric("pipeline.peak_resident_chunks",
                      static_cast<double>(
                          pipelined.stats.peakResidentChunks));

        out.addTable("perf_suite: pinned fig7 sweep, serial vs "
                     "pipelined schedule",
                     std::move(table));
        out.addNote(
            "Shape check: model_digest_* is bit-identical across "
            "schedules (asserted in-binary);\nonly the *_s / "
            "*_per_sec / *_kb / *_ratio / *_chunks timing metrics "
            "may differ between runs.");
        const bool rss_isolated =
            serial.rssIsolated && pipelined.rssIsolated;
        // Environment fact, not model output ("_ratio" excludes it
        // from gates): tools/bench_report.py only enforces the RSS
        // gate when the per-schedule watermark reset worked.
        out.addMetric("rss_isolated_ratio", rss_isolated ? 1.0 : 0.0);
        out.addNote(
            rss_isolated
                ? "Peak RSS is per-schedule (kernel watermark reset "
                  "between modes via clear_refs)."
                : "Peak RSS watermark reset unavailable: each value "
                  "is the process high-water mark,\nso the second "
                  "schedule's value includes the first's.");
        return out;
    }
};

} // namespace

std::unique_ptr<Experiment>
makePerfSuite()
{
    return std::make_unique<PerfSuite>();
}

} // namespace stms::driver
