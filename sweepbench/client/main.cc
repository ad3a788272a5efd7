/**
 * @file
 * sweepbench_client — the sweep benchmark's helper binary.
 *
 *   sweepbench_client gen --seed S --records N --out-dir DIR WORKLOAD...
 *       Generate each suite WORKLOAD at N records per core with
 *       WorkloadSpec::seed = S and write DIR/WORKLOAD.stms (native v2).
 *       At S = 0x5742 (makeWorkload's seed) the files replay exactly
 *       like the driver's own synthetic traces.
 *
 *   sweepbench_client trace --experiment NAME --out FILE
 *                           [--trace SPEC] [key=value]...
 *       Plan NAME from the experiment registry, execute it run by run
 *       with every simulator seam timed (traced_run.hh), run each run
 *       untraced as well, back to back, and write FILE: the
 *       experiment's report, the perf_suite model digest, how many
 *       runs' untraced output differed, the span calibration, and per
 *       run its layer spans, untraced time and exact work counts, all
 *       times in nanoseconds. run.py turns that into per-layer metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/hash.hh"
#include "driver/registry.hh"
#include "driver/trace_cache.hh"
#include "results/json.hh"
#include "results/run_codec.hh"
#include "results/store.hh"
#include "trace_io/format.hh"
#include "trace_io/native.hh"
#include "workload/workloads.hh"

#include "span_stack.hh"
#include "traced_run.hh"

namespace sweepbench
{
namespace
{

using namespace stms;
using driver::ExperimentRegistry;
using driver::RunSpec;
using results::jsonEscape;
using results::jsonNumber;

const char kUsage[] =
    "usage: sweepbench_client gen --seed S --records N --out-dir DIR "
    "WORKLOAD...\n"
    "       sweepbench_client trace --experiment NAME --out FILE "
    "[--trace SPEC] [key=value]...\n";

int
usageError(const std::string &message)
{
    std::fprintf(stderr, "sweepbench_client: %s\n%s", message.c_str(),
                 kUsage);
    return 2;
}

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 0);
    return *end == '\0';
}

/** Cost of one span, measured with the same code path the decorators
 *  use: inner = what an empty span measures of itself, outer = what its
 *  parent sees per empty child span. */
struct Calibration
{
    double innerNs = 0;
    double outerNs = 0;
};

Calibration
calibrate()
{
    constexpr int kSpans = 200000;
    constexpr int kReps = 9;
    SpanStack stack;
    std::vector<double> inner;
    std::vector<double> outer;
    for (int rep = 0; rep < kReps; ++rep) {
        {
            Span parent(stack, Layer::Sim);
            for (int i = 0; i < kSpans; ++i)
                Span child(stack, Layer::Core);
        }
        const LayerTable totals = stack.take();
        const auto &child = totals[static_cast<std::size_t>(Layer::Core)];
        const auto &parent = totals[static_cast<std::size_t>(Layer::Sim)];
        inner.push_back(static_cast<double>(child.totalTicks) / kSpans);
        outer.push_back(static_cast<double>(parent.totalTicks) / kSpans);
    }
    std::sort(inner.begin(), inner.end());
    std::sort(outer.begin(), outer.end());
    return Calibration{inner[kReps / 2] * nsPerTick(),
                       outer[kReps / 2] * nsPerTick()};
}

/** One step of perf_suite's digest recipe: FNV-1a over a run id and
 *  its encodeRunOutput() scalars, bit for bit. */
std::uint64_t
digestRun(const std::string &id, const RunOutput &out, std::uint64_t digest)
{
    digest = fnv1a64(id.data(), id.size(), digest);
    for (const auto &[name, value] : results::encodeRunOutput(out)) {
        digest = fnv1a64(name.data(), name.size(), digest);
        char bits[sizeof(double)];
        __builtin_memcpy(bits, &value, sizeof(bits));
        digest = fnv1a64(bits, sizeof(bits), digest);
    }
    return digest;
}

/** perf_suite's model digest: every run, in plan order. */
std::uint64_t
modelDigest(const std::vector<RunSpec> &plan, const driver::RunSet &runs)
{
    std::uint64_t digest = kFnv1aOffset;
    for (const RunSpec &spec : plan)
        digest = digestRun(spec.id, runs.at(spec.id), digest);
    return digest;
}

std::unique_ptr<trace_io::TraceSource>
openIngest(const RunSpec &spec)
{
    std::string error;
    std::unique_ptr<trace_io::TraceSource> source =
        trace_io::openSource(*spec.ingest, error);
    if (!source) {
        std::fprintf(stderr, "sweepbench_client: run '%s': %s\n",
                     spec.id.c_str(), error.c_str());
        std::exit(1);
    }
    return source;
}

int
runGen(int argc, char **argv)
{
    std::uint64_t seed = 0;
    std::uint64_t records = 0;
    std::string out_dir;
    std::vector<std::string> workloads;
    bool have_seed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--seed" && has_value) {
            have_seed = parseUint(argv[++i], seed);
            if (!have_seed)
                return usageError("--seed needs an unsigned integer");
        } else if (arg == "--records" && has_value) {
            if (!parseUint(argv[++i], records) || records == 0)
                return usageError("--records needs a positive integer");
        } else if (arg == "--out-dir" && has_value) {
            out_dir = argv[++i];
        } else if (!arg.empty() && arg[0] != '-') {
            workloads.push_back(arg);
        } else {
            return usageError("unrecognized argument '" + arg + "'");
        }
    }
    if (!have_seed || records == 0 || out_dir.empty() || workloads.empty())
        return usageError("gen needs --seed, --records, --out-dir and "
                          "at least one workload");
    for (const std::string &name : workloads) {
        if (!isKnownWorkload(name))
            return usageError("unknown workload '" + name + "'");
        WorkloadSpec spec = makeWorkload(name, records);
        spec.seed = seed;
        const Trace trace = WorkloadGenerator(spec).generate();
        const std::string path = out_dir + "/" + name + ".stms";
        const std::string tmp = path + ".tmp";
        if (!trace_io::save(trace, tmp) ||
            std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::fprintf(stderr, "sweepbench_client: cannot write %s\n",
                         path.c_str());
            return 1;
        }
    }
    return 0;
}

/** Everything recorded for one executed run. */
struct RunTrace
{
    LayerTable layers{};
    RunCounts counts;
    /** The same run untraced (stms::runTrace), back to back, in span
     *  clock ticks. */
    std::int64_t plainTicks = 0;
};

std::string
nanoseconds(std::int64_t ticks)
{
    return jsonNumber(static_cast<double>(ticks) * nsPerTick());
}

void
appendLayers(std::string &out, const LayerTable &layers)
{
    out += "{";
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        const LayerTotals &t = layers[l];
        out += l ? ", " : "";
        out += "\"" + std::string(layerName(static_cast<Layer>(l))) +
               "\": {\"total_ns\": " + nanoseconds(t.totalTicks) +
               ", \"self_ns\": " + nanoseconds(t.selfTicks) +
               ", \"spans\": " + std::to_string(t.spans) +
               ", \"children\": " + std::to_string(t.children) + "}";
    }
    out += "}";
}

void
appendHooks(std::string &out, const HookCalls &calls)
{
    out += "{";
    for (std::size_t h = 0; h < kNumHooks; ++h) {
        out += h ? ", " : "";
        out += "\"" + std::string(hookName(static_cast<Hook>(h))) +
               "\": " + std::to_string(calls[h]);
    }
    out += "}";
}

std::string
runJson(const RunSpec &spec, const RunTrace &trace, const RunOutput &out)
{
    const RunCounts &c = trace.counts;
    auto num = [](std::uint64_t value) { return std::to_string(value); };
    std::string json = "{\"id\": \"" + jsonEscape(spec.id) + "\"";
    json += ", \"key\": \"" +
            jsonEscape(spec.ingest ? spec.id : spec.workload) + "\"";
    json += ", \"synthetic\": " + std::string(spec.ingest ? "false" : "true");
    json += ", \"plain_ns\": " + nanoseconds(trace.plainTicks);
    json += ", \"layers\": ";
    appendLayers(json, trace.layers);
    json += ", \"whole_run\": {\"records\": " + num(c.records) +
            ", \"events\": " + num(c.eventsExecuted) +
            ", \"chunks\": " + num(c.chunks) + ", \"stride_calls\": ";
    appendHooks(json, c.strideCalls);
    json += ", \"stms_calls\": ";
    if (c.hasStms)
        appendHooks(json, c.stmsCalls);
    else
        json += "null";
    json += "}";

    const auto &mem = out.sim.mem;
    json += ", \"window\": {\"accesses\": " + num(mem.accesses) +
            ", \"offchip_reads\": " + num(mem.offchipReads) +
            ", \"l1_hits\": " + num(c.l1.hits) +
            ", \"l1_misses\": " + num(c.l1.misses) +
            ", \"l2_hits\": " + num(c.l2.hits) +
            ", \"l2_misses\": " + num(c.l2.misses) +
            ", \"mem_requests\": {";
    for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
        json += k ? ", " : "";
        json += "\"" +
                std::string(trafficClassName(static_cast<TrafficClass>(k))) +
                "\": " + num(out.sim.traffic.requests[k]);
    }
    json += "}, \"stride\": {\"issued\": " + num(out.stride.issued) +
            ", \"useful\": " + num(out.stride.useful) +
            ", \"partial\": " + num(out.stride.partial) + "}";
    if (c.hasStms) {
        json += ", \"stms\": {\"issued\": " + num(out.stms.issued) +
                ", \"useful\": " + num(out.stms.useful) +
                ", \"partial\": " + num(out.stms.partial) +
                ", \"history_appends\": " + num(out.stmsInternal.logged) +
                ", \"index_lookups\": " + num(c.index.lookups) +
                ", \"index_lookup_hits\": " + num(c.index.lookupHits) +
                ", \"index_updates\": " + num(c.index.updates) +
                ", \"index_replacements\": " + num(c.index.replacements) +
                ", \"bucket_buffer_hits\": " + num(c.bucketBuffer.hits) +
                ", \"bucket_buffer_misses\": " +
                num(c.bucketBuffer.misses) + "}";
    } else {
        json += ", \"stms\": null";
    }
    json += "}}";
    return json;
}

int
runTraceCommand(int argc, char **argv)
{
    std::string experiment_name;
    std::string out_path;
    Options options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--experiment" && has_value) {
            experiment_name = argv[++i];
        } else if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--trace" && has_value) {
            // Same joined shape as the driver CLI's repeated --trace.
            const std::string spec = argv[++i];
            const std::string existing = options.get("trace", "");
            options.set("trace",
                        existing.empty() ? spec : existing + ";" + spec);
        } else if (!options.parseToken(arg)) {
            return usageError("unrecognized argument '" + arg + "'");
        }
    }
    if (experiment_name.empty() || out_path.empty())
        return usageError("trace needs --experiment and --out");
    const driver::Experiment *experiment =
        ExperimentRegistry::global().find(experiment_name);
    if (!experiment)
        return usageError("unknown experiment '" + experiment_name + "'");

    const Calibration calibration = calibrate();
    const std::vector<RunSpec> plan = experiment->plan(options);
    driver::TraceCache cache;
    driver::RunSet runs;
    std::vector<RunTrace> traces(plan.size());
    std::uint64_t acquires = 0;
    std::size_t plain_mismatches = 0;
    SpanStack spans;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const RunSpec &spec = plan[i];
        RunTrace &trace = traces[i];
        driver::TraceCache::Handle handle;
        if (!spec.ingest) {
            Span span(spans, Layer::Workload);
            handle = cache.acquire(spec.workload, spec.records);
            ++acquires;
        }
        // The run also goes through stms::runTrace() untraced, back to
        // back with the traced run and first on every other run: the
        // yardstick for the span calibration and the tracing overhead,
        // and a check that tracing leaves the model alone.
        auto plain = [&] {
            std::unique_ptr<trace_io::TraceSource> source;
            if (spec.ingest)
                source = openIngest(spec);
            else
                source = std::make_unique<trace_io::MemoryTraceSource>(
                    handle.trace());
            const std::int64_t start = nowTicks();
            RunOutput out = stms::runTrace(*source, spec.config);
            trace.plainTicks = nowTicks() - start;
            return out;
        };
        auto traced = [&] {
            std::unique_ptr<trace_io::TraceSource> source;
            if (spec.ingest) {
                Span span(spans, Layer::TraceIo);
                source = openIngest(spec);
            } else {
                source = std::make_unique<trace_io::MemoryTraceSource>(
                    handle.trace());
            }
            return runTraced(*source, spec.config, spans, trace.counts);
        };
        RunOutput untraced;
        RunOutput out;
        if (i % 2 == 0) {
            untraced = plain();
            out = traced();
        } else {
            out = traced();
            untraced = plain();
        }
        if (digestRun(spec.id, untraced, kFnv1aOffset) !=
            digestRun(spec.id, out, kFnv1aOffset))
            ++plain_mismatches;
        trace.layers = spans.take();
        runs.add(spec.id, std::move(out));
    }

    const std::uint64_t digest = modelDigest(plan, runs);
    const driver::Report report = experiment->report(options, runs);

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    std::string json = "{\n\"experiment\": \"" +
                       jsonEscape(experiment->name()) + "\",\n";
    json += "\"digest\": \"" + std::string(digest_hex) + "\",\n";
    json += "\"plain_mismatches\": " + std::to_string(plain_mismatches) +
            ",\n";
    json += "\"calibration\": {\"inner_ns\": " +
            jsonNumber(calibration.innerNs) +
            ", \"outer_ns\": " + jsonNumber(calibration.outerNs) + "},\n";
    json += "\"cache\": {\"acquires\": " + std::to_string(acquires) +
            ", \"generations\": " + std::to_string(cache.generations()) +
            "},\n";
    json += "\"runs\": [";
    for (std::size_t i = 0; i < plan.size(); ++i) {
        json += i ? ",\n" : "\n";
        json += runJson(plan[i], traces[i], runs.at(plan[i].id));
    }
    json += "\n],\n\"report\": " + report.toJson() + "}\n";
    if (!results::atomicWriteFile(out_path, json)) {
        std::fprintf(stderr, "sweepbench_client: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    return 0;
}

} // namespace
} // namespace sweepbench

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "gen")
        return sweepbench::runGen(argc, argv);
    if (command == "trace")
        return sweepbench::runTraceCommand(argc, argv);
    return sweepbench::usageError("expected a command: gen or trace");
}
