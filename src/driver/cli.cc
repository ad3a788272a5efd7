#include "driver/cli.hh"

#include <cstdio>
#include <string_view>

#include "common/log.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "results/store.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_writer.hh"

namespace stms::driver
{

namespace
{

const char kUsage[] =
    "usage: driver [--list] [--experiment NAME]... [--threads N]\n"
    "              [--mem-backend SPEC]\n"
    "              [--trace PATH[,format=...]]...\n"
    "              [--json PATH|-] [--no-timing] [--csv] [--verbose]\n"
    "              [--trace-out FILE] [--sample-every N]\n"
    "              [--log-level LEVEL] [--progress|--no-progress]\n"
    "              [key=value]...\n"
    "\n"
    "  --list            list registered experiments and exit\n"
    "  --experiment NAME run NAME (repeatable; 'all' runs everything)\n"
    "  --threads N       worker threads for independent runs "
    "(default 1;\n"
    "                    0 = auto-detect hardware concurrency; "
    "results are\n"
    "                    bit-identical to serial for every N)\n"
    "  --mem-backend SPEC  memory timing model: "
    "NAME[,key=val...] with NAME\n"
    "                    in fixed|queued|dram (e.g. 'queued,channels=4',\n"
    "                    'dram,policy=closed'); the default 'fixed' is\n"
    "                    canonicalized away, so it runs byte-identically\n"
    "                    to no flag (experiments that sweep backends\n"
    "                    themselves pin each run and ignore the flag)\n"
    "  --trace SPEC      ingest an on-disk trace: "
    "PATH[,format=native|champsim]\n"
    "                    (repeatable: each ChampSim file is one "
    "core's lane;\n"
    "                    consumed by ingest_replay and friends, see "
    "--list)\n"
    "  --json PATH       write structured results to PATH "
    "('-' = JSON only\n"
    "                    on stdout, suppressing the text report); "
    "writes are\n"
    "                    atomic (temp file + rename); includes a "
    "'timing' key\n"
    "                    (wall clock + per-run stage timings) kept "
    "apart from\n"
    "                    the model output (metrics and tables)\n"
    "  --no-timing       omit the timing key (timing is wall-clock "
    "noise;\n"
    "                    determinism gates byte-compare timing-free "
    "reports)\n"
    "  --csv             print tables as CSV instead of aligned text\n"
    "  --verbose         shorthand for --log-level debug\n"
    "  --trace-out FILE  write a Perfetto/chrome://tracing JSON trace "
    "of the\n"
    "                    sweep (run lifecycles, stage spans, the "
    "trace-cache\n"
    "                    counter track); never perturbs model "
    "output\n"
    "                    (docs/OBSERVABILITY.md)\n"
    "  --sample-every N  snapshot simulator counters every N accessed\n"
    "                    cycles into per-run time series under the "
    "report's\n"
    "                    timing key (0 = off; never part of the "
    "model\n"
    "                    output; render with "
    "tools/telemetry_report.py)\n"
    "  --log-level LEVEL stderr verbosity: error|warn|info|debug\n"
    "                    (default warn)\n"
    "  --progress        live sweep progress line on stderr (default: "
    "only\n"
    "                    when stderr is a TTY; --no-progress forces "
    "off)\n"
    "  key=value         experiment options (e.g. records=65536, "
    "chunk=4096)\n";

/**
 * Apply --threads: decimal digits only (parseDecimal). 0 is the auto
 * spelling (resolve std::thread::hardware_concurrency() at run
 * time); the resolved count is reported in the timing metadata and
 * never joins the experiment options, so model output stays
 * thread-count-independent.
 */
bool
applyThreads(const std::string &value, DriverArgs &args,
             std::string &error)
{
    std::uint64_t parsed = 0;
    if (!parseDecimal(value, parsed) || parsed > 4096) {
        error = "--threads needs an integer in [0, 4096] "
                "(0 = auto-detect)";
        return false;
    }
    args.threads = static_cast<std::uint32_t>(parsed);
    return true;
}

/**
 * Apply --sample-every: counter-snapshot epoch in accessed cycles.
 * 0 is the explicit "off" spelling. The value steers observation
 * only — it flows through RunnerConfig (never Options), so it cannot
 * change model output.
 */
bool
applySampleEvery(const std::string &value, DriverArgs &args,
                 std::string &error)
{
    std::uint64_t parsed = 0;
    if (!parseDecimal(value, parsed) || parsed > (1ULL << 40)) {
        error = "--sample-every needs an integer in [0, 2^40] "
                "(0 = off)";
        return false;
    }
    args.sampleEvery = parsed;
    return true;
}

/** Apply --log-level: error|warn|info|debug. */
bool
applyLogLevel(const std::string &value, DriverArgs &args,
              std::string &error)
{
    LogLevel level = LogLevel::Warn;
    if (!parseLogLevel(value, level)) {
        error = "--log-level needs error|warn|info|debug";
        return false;
    }
    args.logLevel = static_cast<int>(level);
    return true;
}

/** Append one --trace spec to the joined "trace" option the
 *  experiments consume (';'-separated, see trace_io::parseIngestSpec). */
void
appendTraceSpec(Options &options, const std::string &spec)
{
    const std::string existing = options.get("trace", "");
    options.set("trace",
                existing.empty() ? spec : existing + ";" + spec);
}

/** An option that no longer exists, and the message it fails with. */
struct RemovedOption
{
    std::string_view name;
    const char *message;
};

constexpr RemovedOption kRemovedOptions[] = {
    {"index-shards",
     "--index-shards was removed: index-table sharding never changed "
     "results; drop the option"},
    {"store",
     "--store was removed: there is no result store; write the report "
     "with --json PATH"},
    {"rerun",
     "--rerun was removed: every invocation simulates every run; drop "
     "the option"},
    {"shard",
     "--shard was removed: a sweep always runs its whole plan; use "
     "--threads N to spread it over cores"},
    {"results",
     "--results was removed: there is no result store to list, show, "
     "diff or gc; compare --json reports (tools/golden_reports.py)"},
    {"baseline",
     "--baseline was removed: tools/golden_reports.py compares reports "
     "against the committed goldens in tests/data/golden"},
    // The prefixes need no ordering: a match must end at the name or
    // at '=', so "pipeline" never claims "pipeline-chunk".
    {"pipeline",
     "--pipeline was removed: fan-out is the only schedule and gives "
     "the same results; use --threads N"},
    {"pipeline-chunk",
     "--pipeline-chunk was removed: there is no pipelined schedule to "
     "chunk; drop the option"},
    {"trace-cache-mb",
     "--trace-cache-mb was removed: the trace cache keeps each trace "
     "it generates; drop the option"},
};

/**
 * The removed option @p token spells, or nullptr. Every spelling
 * counts: `--name VALUE`, `--name=VALUE`, `--name` and bare
 * `name=VALUE`. Without this check the `=` spellings would slip
 * through the key=value passthrough into the experiment options and
 * run as if the option had been honored.
 */
const RemovedOption *
findRemovedOption(const std::string &token)
{
    std::size_t start = 0;
    while (start < token.size() && start < 2 && token[start] == '-')
        ++start;
    const std::string_view name = std::string_view(token).substr(start);
    for (const RemovedOption &removed : kRemovedOptions) {
        if (name.starts_with(removed.name) &&
            (name.size() == removed.name.size() ||
             name[removed.name.size()] == '='))
            return &removed;
    }
    return nullptr;
}

/**
 * Apply --mem-backend: validate + canonicalize the spec, then flow it
 * to the experiments as the "mem-backend" option. The plain fixed
 * backend IS the default memory model, so it is canonicalized away —
 * `--mem-backend fixed` leaves the options (and the output) exactly
 * as not passing the flag does.
 */
bool
applyMemBackend(const std::string &value, DriverArgs &args,
                std::string &error)
{
    MemBackendSpec spec;
    if (!parseMemBackendSpec(value, spec, error))
        return false;
    if (!spec.isDefault())
        args.options.set("mem-backend", spec.canonical());
    return true;
}

/** Fold runner ExecStats into the report's timing metadata. */
ReportTiming
makeReportTiming(const ExecStats &stats)
{
    ReportTiming timing;
    timing.present = true;
    timing.wallSeconds = stats.wallSeconds;
    timing.acquireSeconds = stats.acquireSeconds;
    timing.simulateSeconds = stats.simulateSeconds;
    timing.threads = stats.threadsResolved;
    timing.records = stats.recordsProcessed;
    timing.recordsPerSecond = stats.recordsPerSecond();
    timing.peakRssKb = peakRssKb();
    timing.sampleEvery = stats.sampleEvery;
    timing.sampleColumns = stats.sampleColumns;
    timing.runs = stats.runs;
    return timing;
}

void
printList(const ExperimentRegistry &registry)
{
    std::printf("registered experiments:\n");
    for (const Experiment *experiment : registry.all()) {
        std::printf("  %-16s %s\n", experiment->name().c_str(),
                    experiment->description().c_str());
    }
}

/** Render one report in the selected human format. */
void
printReport(const Report &report, bool csv)
{
    if (!csv) {
        std::fputs(report.toText().c_str(), stdout);
        return;
    }
    for (const auto &entry : report.tables()) {
        if (!entry.title.empty())
            std::printf("# %s\n", entry.title.c_str());
        std::fputs(entry.table.toCsv().c_str(), stdout);
    }
}

bool
writeJson(const std::string &path, const std::string &payload)
{
    if (path == "-") {
        std::fputs(payload.c_str(), stdout);
        return true;
    }
    // Atomic: an interrupted run must never leave a truncated JSON
    // file that downstream json.load() chokes on.
    return results::atomicWriteFile(path, payload);
}

/**
 * Owns the process-wide TraceSink for one driver invocation.
 * Installs on construction (when a path was given) and guarantees
 * uninstall-then-close on every exit path; finish() reports write
 * failures on the success paths.
 */
class TraceSinkGuard
{
  public:
    explicit TraceSinkGuard(const std::string &path)
    {
        if (path.empty())
            return;
        sink_ = std::make_unique<telemetry::TraceSink>(path);
        telemetry::installTraceSink(sink_.get());
    }

    ~TraceSinkGuard()
    {
        if (!sink_)
            return;
        // Error-path teardown: still write what was captured (a
        // partial trace of a failed sweep is exactly when you want
        // one), but swallow I/O errors — the run already failed.
        telemetry::installTraceSink(nullptr);
        std::string error;
        sink_->close(error);
        sink_.reset();
    }

    /** Close + write the trace; false (with a message) on failure. */
    bool
    finish()
    {
        if (!sink_)
            return true;
        telemetry::installTraceSink(nullptr);
        std::string error;
        const bool ok = sink_->close(error);
        if (!ok)
            logRaw(error + "\n");
        else
            stms_inform("trace written to %s", sink_->path().c_str());
        sink_.reset();
        return ok;
    }

  private:
    std::unique_ptr<telemetry::TraceSink> sink_;
};

int
runExperiments(const DriverArgs &args)
{
    const ExperimentRegistry &registry = ExperimentRegistry::global();

    std::vector<const Experiment *> selected;
    for (const std::string &name : args.experiments) {
        if (name == "all") {
            selected = registry.all();
            break;
        }
        const Experiment *experiment = registry.find(name);
        if (!experiment) {
            logRaw("unknown experiment '" + name + "'\n\n");
            printList(registry);
            return 1;
        }
        selected.push_back(experiment);
    }

    TraceSinkGuard trace_sink(args.traceOutPath);

    RunnerConfig runner_config;
    runner_config.threads = args.threads;
    runner_config.sampleEvery = args.sampleEvery;
    runner_config.progress = args.progress;
    ExperimentRunner runner(globalTraceCache(), runner_config);

    // With --json -, stdout carries the JSON payload alone; the
    // human rendering would interleave and break json.load().
    const bool json_on_stdout = args.jsonPath == "-";

    std::vector<std::string> json_reports;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const Experiment &experiment = *selected[i];
        ExecStats stats;
        Report report = runner.run(experiment, args.options, &stats);
        if (args.timing)
            report.setTiming(makeReportTiming(stats));
        if (!json_on_stdout) {
            if (i > 0)
                std::printf("\n");
            printReport(report, args.csv);
        }
        if (!args.jsonPath.empty())
            json_reports.push_back(report.toJson());
    }

    if (!args.jsonPath.empty()) {
        // A single experiment writes a bare object; several write an
        // array. Downstream json.load() handles either shape.
        std::string payload;
        if (json_reports.size() == 1) {
            payload = json_reports[0];
        } else {
            payload = "[\n";
            for (std::size_t i = 0; i < json_reports.size(); ++i) {
                if (i > 0)
                    payload += ",\n";
                payload += json_reports[i];
            }
            payload += "]\n";
        }
        if (!writeJson(args.jsonPath, payload)) {
            logRaw("failed to write '" + args.jsonPath + "'\n");
            return 1;
        }
    }
    return trace_sink.finish() ? 0 : 1;
}

/**
 * Apply the parsed telemetry/logging globals. --verbose is the
 * legacy debug spelling; an explicit --log-level wins over it.
 * Sampling flows through the process-wide telemetry global so nested
 * runners (perf_suite's inner sweeps) inherit the flag.
 */
void
applyTelemetryGlobals(const DriverArgs &args)
{
    if (args.logLevel != DriverArgs::kLogUnset)
        setLogLevel(static_cast<LogLevel>(args.logLevel));
    else if (args.verbose)
        setLogLevel(LogLevel::Debug);
    telemetry::setGlobalSampleEvery(args.sampleEvery);
}

} // namespace

bool
parseDriverArgs(int argc, char **argv, DriverArgs &args,
                std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (const RemovedOption *removed = findRemovedOption(token)) {
            error = removed->message;
            return false;
        }
        auto nextValue = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                error = std::string(flag) + " needs a value";
                return nullptr;
            }
            return argv[++i];
        };

        // GNU-style --flag=value spellings of the driver's own flags
        // must not fall through to the key=value option store (where
        // "--threads=8" would silently become the experiment option
        // threads=8 and never change the worker count).
        if (token.size() > 2 && token[0] == '-') {
            const auto eq = token.find('=');
            if (eq != std::string::npos) {
                std::size_t start = token[1] == '-' ? 2 : 1;
                const std::string key = token.substr(start, eq - start);
                const std::string value = token.substr(eq + 1);
                if (key == "experiment" || key == "e") {
                    args.experiments.push_back(value);
                    continue;
                }
                if (key == "threads" || key == "j") {
                    if (!applyThreads(value, args, error))
                        return false;
                    continue;
                }
                if (key == "json") {
                    args.jsonPath = value;
                    continue;
                }
                if (key == "mem-backend") {
                    if (!applyMemBackend(value, args, error))
                        return false;
                    continue;
                }
                if (key == "trace") {
                    appendTraceSpec(args.options, value);
                    continue;
                }
                if (key == "trace-out") {
                    args.traceOutPath = value;
                    continue;
                }
                if (key == "sample-every") {
                    if (!applySampleEvery(value, args, error))
                        return false;
                    continue;
                }
                if (key == "log-level") {
                    if (!applyLogLevel(value, args, error))
                        return false;
                    continue;
                }
                // The boolean flags take no value; swallowing
                // "--csv=1" as the experiment option csv=1 would be
                // the same silent fallthrough this block prevents.
                if (key == "list" || key == "csv" || key == "help" ||
                    key == "h" || key == "verbose" || key == "v" ||
                    key == "no-timing" ||
                    key == "progress" || key == "no-progress") {
                    error = "--" + key + " does not take a value";
                    return false;
                }
            }
        }

        if (token == "--help" || token == "-h") {
            args.help = true;
        } else if (token == "--list") {
            args.list = true;
        } else if (token == "--csv") {
            args.csv = true;
        } else if (token == "--verbose" || token == "-v") {
            args.verbose = true;
        } else if (token == "--no-timing") {
            args.timing = false;
        } else if (token == "--progress") {
            args.progress = telemetry::ProgressMode::On;
        } else if (token == "--no-progress") {
            args.progress = telemetry::ProgressMode::Off;
        } else if (token == "--trace-out") {
            const char *value = nextValue("--trace-out");
            if (!value)
                return false;
            args.traceOutPath = value;
        } else if (token == "--sample-every") {
            const char *value = nextValue("--sample-every");
            if (!value)
                return false;
            if (!applySampleEvery(value, args, error))
                return false;
        } else if (token == "--log-level") {
            const char *value = nextValue("--log-level");
            if (!value)
                return false;
            if (!applyLogLevel(value, args, error))
                return false;
        } else if (token == "--experiment" || token == "-e") {
            const char *value = nextValue("--experiment");
            if (!value)
                return false;
            args.experiments.push_back(value);
        } else if (token == "--threads" || token == "-j") {
            const char *value = nextValue("--threads");
            if (!value)
                return false;
            if (!applyThreads(value, args, error))
                return false;
        } else if (token == "--json") {
            const char *value = nextValue("--json");
            if (!value)
                return false;
            args.jsonPath = value;
        } else if (token == "--mem-backend") {
            const char *value = nextValue("--mem-backend");
            if (!value)
                return false;
            if (!applyMemBackend(value, args, error))
                return false;
        } else if (token == "--trace") {
            const char *value = nextValue("--trace");
            if (!value)
                return false;
            appendTraceSpec(args.options, value);
        } else if (args.options.parseToken(token)) {
            // key=value (or --key=value) passthrough.
        } else {
            error = "unrecognized argument '" + token + "'";
            return false;
        }
    }
    return true;
}

int
driverMain(int argc, char **argv)
{
    DriverArgs args;
    std::string error;
    if (!parseDriverArgs(argc, argv, args, error)) {
        logRaw(error + "\n" + kUsage);
        return 1;
    }
    if (args.help) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    applyTelemetryGlobals(args);
    if (args.list) {
        printList(ExperimentRegistry::global());
        return 0;
    }
    if (args.experiments.empty()) {
        logRaw(std::string("no experiment selected\n\n") + kUsage);
        printList(ExperimentRegistry::global());
        return 1;
    }
    return runExperiments(args);
}

} // namespace stms::driver
