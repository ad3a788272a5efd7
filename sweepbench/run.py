#!/usr/bin/env python3
"""Sweep benchmark for the STMS simulator.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a full source checkout. The first run builds the
simulator (the repository's own CMake project, added as a
subdirectory) and the traced client into .bench_build/sweepbench.

Workloads. Load is a closed loop with one client: this process runs
one `driver` at a time, sweep after sweep, until --seconds have passed
(at least MIN_SWEEPS sweeps); every figure, set-up time included, is
the median over those sweeps.

  fig7-serial    `driver --experiment fig7 records=65536 --threads 1`:
                 8 suite workloads x index-update sampling {1.0, 0.125}
                 in functional mode. At p=1.0 every miss updates the
                 index, so it loads STMS hardest; trace generation
                 through the TraceCache is on its path (8 traces for 16
                 runs); memory timing and trace_io do almost nothing.
  replay-timing  the benchmark generates oltp-db2, dss-db2 and sci-em3d
                 traces (65536 records per core) from --seed, writes
                 them as native trace files, and replays each with
                 `driver --experiment ingest_replay --trace FILE`: base
                 vs base+STMS in timing mode at 1/8 sampling. The only
                 workload whose inputs come from the seed; the event
                 queue, MSHRs and memory controller dominate, and half
                 its runs have no STMS at all.

The driver CLI has no seed input and generates the fig7 suite from its
fixed seed 0x5742, so fig7-serial ignores --seed (the result stamp
records that).

BENCHMARK.json (at the checkout root) declares the workloads and the
metrics with their units and directions; DESCRIPTIONS below says how
each metric is measured.

Correctness. The model is deterministic and has not been validated
against hardware, so "correct" means bit-identical model output and no
error figure is reported. Every driver process must exit 0, report
every planned run id, and produce the reference report (timing key
removed). For fig7 that is the pinned report of records=65536. A
replay of a seeded trace has no pinned report, so timing mode is
checked against pinned references once per invocation: the driver's
own synthetic ingest_replay of each replayed workload at its seed
0x5742 and records=65536 must give the pinned report (and at --seed
0x5742 the replayed files are those very traces, so their replays
must give it too). At any other seed every replay of a trace must
give the report of its first replay in this process. The traced
client must match the same report and, for fig7, the pinned
perf_suite model digest, and every run it traces must give the same
output as the same run through stms::runTrace() untraced. A process
that fails any check counts once in `failed`; the text report prints
failed_run_ratio (failed / attempted).

End-to-end metrics (--trace 0) come from the untraced driver
processes. Per-layer metrics (--trace 1): each untraced sweep (which
gives the driver's own `--json` timing) is followed by the same sweep
in sweepbench_client (client/main.cc), which times the simulator's
public seams and reads its stats structs; every per-layer metric is
the median over those pairs. Spans read the TSC where it is invariant
(steady_clock elsewhere); their cost is calibrated at client start-up
and subtracted once per span. The layer times built from calibrated
self times (CALIBRATED) are marked unresolved in the text report when
those self times, summed, miss the same runs untraced by more than
CALIBRATION_TOLERANCE. Counts are exact and are divided by the records
of the window they were counted over, as each description states: the
simulator's stats are zeroed at the warmup barrier
(RunConfig::warmupFraction = 0.25), while decorator call counts and
EventQueue::executed() cover the whole run.

The benchmark's own tests: `python3 -m unittest discover -s sweepbench`
(the parity test needs a finished build) and the span-stack unit test
(`cmake --build .bench_build/sweepbench --target span_stack_test`, then
`ctest --test-dir .bench_build/sweepbench`).
"""

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "sweepbench"
DRIVER = BUILD_DIR / "stms" / "driver"
CLIENT = BUILD_DIR / "sweepbench_client"

SPEC_PATH = ROOT / "BENCHMARK.json"
FIG7 = "fig7-serial"
REPLAY = "replay-timing"

MIN_SWEEPS = 3
# No process may outlive the deadline; the benchmark as a whole must
# end within 180 s, builds aside.
PROCESS_TIMEOUT_S = 60
DEADLINE_S = 150
FIG7_RECORDS = 65536
REPLAY_RECORDS = 65536
REPLAY_TRACES = ("oltp-db2", "dss-db2", "sci-em3d")
# makeWorkload()'s seed: replay inputs generated with it replay exactly
# like the driver's own synthetic traces (test_run.py checks that).
DRIVER_SEED = 0x5742

FIG7_SUITE = ("web-apache", "web-zeus", "oltp-db2", "oltp-oracle",
              "dss-db2", "sci-em3d", "sci-moldyn", "sci-ocean")
FIG7_RUN_IDS = frozenset(f"{w}/p{p}" for w in FIG7_SUITE
                         for p in ("1.000", "0.125"))
REPLAY_RUN_IDS = frozenset(("base", "stms"))
# sha256 of the fig7 report at records=65536 with the timing key
# removed, as canonical_report() spells it, and the perf_suite digest
# of the same sweep (BENCH_*.json's model_digest).
FIG7_REPORT_SHA256 = (
    "c424394c3ca904f787ff126c086968b5e3be5771ee8909e169a215a18401425c")
FIG7_DIGEST = "30b47d48c5101b9e"
# The same sha256 of the driver's own `ingest_replay workload=W
# records=65536` report for each replayed workload, which is also the
# report of a replay of its trace generated at the driver's seed.
REPLAY_REPORT_SHA256 = {
    "oltp-db2":
        "3e52a13ca987b927e98419990c7a33790c3b0dd214688c5e3880b1ce8a6b1825",
    "dss-db2":
        "681240f71a7f2af8a3504af573bb0f7de9d5fc6afff817b7bff6ecfdccbed1cd",
    "sci-em3d":
        "abe214755c8a465e2883e13d6824cb807edc3c6eadcd028dc47190ca11571f8a",
}

_HOOKS = ("on_offchip_read", "on_prefetch_used", "on_prefetch_unused",
          "on_foreign_covered", "on_prefetch_fill", "on_access_hint",
          "meta_callback")
_TRAFFIC = ("demand-read", "demand-writeback", "prefetch", "meta-lookup",
            "meta-update", "meta-record")

# How each metric BENCHMARK.json may declare is measured.
DESCRIPTIONS = {
    # End-to-end, from the untraced driver processes.
    "records_per_sec": "trace records simulated / driver-reported sweep "
                       "wall seconds, summed over the sweep's driver "
                       "processes",
    "cpu_s_per_mrec": "user+sys CPU seconds of the driver processes per "
                      "million records",
    "peak_rss_mb": "peak resident set of a driver process (max over the "
                   "sweep)",
    "setup_s": "host seconds before records flow: process start-up "
               "(process wall - sweep wall) plus, per distinct trace, its "
               "longest acquisition (generation or file open; other runs' "
               "waits on the same trace are not counted)",
    # Per layer.
    "driver.acquire_s": "untraced --json timing.stages.acquire_s, summed "
                        "over the sweep's processes",
    "driver.worker_idle_ratio": "1 - sum of run wall / (threads x sweep "
                                "wall), untraced",
    "driver.longest_run_s": "longest single run of the sweep (acquire + "
                            "simulate), untraced",
    "driver.startup_s": "process wall - sweep wall, summed over the "
                        "sweep's processes, untraced",
    "workload.generate_s": "per distinct trace, its longest "
                           "TraceCache::acquire span (the generating "
                           "one), summed",
    "workload.ns_per_record": "workload.generate_s per record generated",
    "workload.traces_generated": "TraceCache::generations() after the "
                                 "traced sweep",
    "workload.cache_hit_ratio": "TraceCache acquires served without "
                                "generating / acquires",
    "trace_io.read_s": "self time of RecordCursor calls, lane opens and "
                       "trace_io::openSource",
    "trace_io.chunks": "non-empty RecordCursor::chunk() windows, whole "
                       "run",
    "sim.self_s": "self time of the runs minus every timed seam below "
                  "them",
    "sim.ns_per_event": "sim.self_s per EventQueue event executed (whole "
                        "run)",
    "sim.events_per_record": "EventQueue::executed() per record, whole "
                             "run",
    "sim.port_s": "self time inside PrefetchPort::issuePrefetch and "
                  "metaRequest calls made by prefetchers",
    "sim.l1_hit_ratio": "L1 hits / (hits + misses), measured window",
    "sim.l2_hit_ratio": "L2 hits / (hits + misses), measured window",
    "sim.offchip_reads_per_record": "uncovered off-chip demand reads per "
                                    "access, measured window",
    **{f"sim.mem_requests.{cls}": f"memory-controller {cls} requests per "
       "access, measured window" for cls in _TRAFFIC},
    "core.self_s": "self time of STMS hooks and meta-data completions",
    "core.ns_per_call": "core.self_s per STMS hook or completion call",
    **{f"core.calls.{hook}": f"STMS {hook} calls per record of STMS runs, "
       "whole run" for hook in _HOOKS},
    "core.index_lookups": "index-table lookups per access of STMS runs, "
                          "measured window",
    "core.index_lookup_hit_ratio": "index-table lookup hits / lookups, "
                                   "measured window",
    "core.index_updates": "index-table updates per access of STMS runs, "
                          "measured window",
    "core.index_replacements": "index-table replacements per access of "
                               "STMS runs, measured window",
    "core.bucket_buffer_hit_ratio": "bucket-buffer hits / probes, "
                                    "measured window",
    "core.history_appends": "history-buffer appends per access of STMS "
                            "runs, measured window",
    "core.prefetches_issued": "STMS prefetches issued per access of STMS "
                              "runs, measured window",
    "core.prefetch_accuracy": "STMS (useful + partial) / issued, measured "
                              "window",
    "prefetch.self_s": "self time of stride prefetcher hooks",
    "prefetch.calls": "stride prefetcher hook calls per record, whole run",
    "prefetch.accuracy": "stride (useful + partial) / issued, measured "
                         "window",
    "trace.overhead_ratio": "traced / untraced records_per_sec of the same "
                            "runs, which the client runs back to back",
    "trace.spans": "spans recorded by the traced run",
    "trace.span_cost_ns": "calibrated cost of one nested span, subtracted "
                          "per span",
    "trace.calibration_error_ratio": "|calibrated layer self times summed "
                                     "over the runs / the same runs "
                                     "untraced, back to back - 1|",
}

# Per-layer times built from calibrated span self times, and how far
# their sum may miss the same runs untraced before they are reported
# as unresolved rather than measured.
CALIBRATED = frozenset((
    "trace_io.read_s", "sim.self_s", "sim.ns_per_event", "sim.port_s",
    "core.self_s", "core.ns_per_call", "prefetch.self_s"))
CALIBRATION_TOLERANCE = 0.1


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    description: str


_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchError(Exception):
    """A set-up failure: no result can be printed."""


def validate_metrics(metrics):
    """Reject names or units outside the benchmark's contract."""
    seen = set()
    for metric in metrics:
        if not _NAME_RE.fullmatch(metric.name):
            raise ValueError(f"bad metric name {metric.name!r}")
        if not _UNIT_RE.fullmatch(metric.unit):
            raise ValueError(f"bad unit {metric.unit!r} of {metric.name}")
        if metric.better not in ("higher", "lower"):
            raise ValueError(f"bad direction of {metric.name}")
        if metric.name in seen:
            raise ValueError(f"duplicate metric {metric.name}")
        seen.add(metric.name)


def load_spec(path=SPEC_PATH):
    """Workload names and (end-to-end, per-layer) metrics declared in
    BENCHMARK.json, each metric with its description."""
    try:
        spec = json.loads(path.read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        tables = [[(m["name"], m["unit"], m["better"]) for m in spec[key]]
                  for key in ("end_to_end", "per_layer")]
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise BenchError(f"cannot read {path}: {error!r}") from None
    unknown = set(workloads) - {FIG7, REPLAY}
    unmeasured = {name for table in tables for name, _, _ in table} - \
        DESCRIPTIONS.keys()
    if unknown or unmeasured:
        raise BenchError(f"{path} declares what run.py does not run or "
                         f"measure: {sorted(unknown | unmeasured)}")
    end_to_end, per_layer = (
        tuple(Metric(name, unit, better, DESCRIPTIONS[name])
              for name, unit, better in table) for table in tables)
    try:
        validate_metrics(end_to_end + per_layer)
    except ValueError as error:
        raise BenchError(f"{path}: {error}") from None
    return workloads, end_to_end, per_layer


# ------------------------------------------------------------------ checks

def canonical_report(report):
    """sha256 of a report's model output (everything but timing)."""
    model = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(
        json.dumps(model, sort_keys=True).encode()).hexdigest()


def check_output(returncode, run_ids, expected_ids, model, reference):
    """Why one process's output is wrong, or None when it is right.

    Checks in order and reports only the first problem, so a process
    counts at most once however many checks it fails."""
    if returncode != 0:
        return f"exit code {returncode}"
    missing = sorted(expected_ids - set(run_ids))
    if missing:
        return "missing run ids " + ", ".join(missing)
    if model != reference:
        return f"model output {model} differs from reference {reference}"
    return None


class Tally:
    """Processes attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        return reason is None

    @property
    def failed(self):
        return len(self.failures)


# --------------------------------------------------------------- processes

@dataclasses.dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    output: dict | None


def run_process(cmd, out_path, log_path, timeout):
    """Run @cmd to completion; return its rusage and JSON output.

    The process is reaped with wait4() so CPU time and peak RSS are its
    own. A timer kills it after @p timeout seconds."""
    out_path.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([str(c) for c in cmd],
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = None
    if proc.returncode == 0:
        try:
            output = json.loads(out_path.read_text())
        except (OSError, ValueError):
            output = None
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss, output)


# -------------------------------------------------------------------- build

def check_checkout():
    for needed in ("CMakeLists.txt", "src", "tools/bench_report.py"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT} is not a full source checkout "
                             f"(no {needed})")


def build():
    # Compilers and the driver write temporary files; keep them in the
    # checkout like everything else the benchmark writes.
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "driver",
                  "sweepbench_client", "-j", str(os.cpu_count() or 1)])
    with open(log, "wb") as out:
        for step in steps:
            result = subprocess.run([str(s) for s in step], stdout=out,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                tail = log.read_text(errors="replace")[-4000:]
                raise BenchError(f"build failed ({log}):\n{tail}")


def bench_report():
    """tools/bench_report.py, for its sanitizer and git helpers."""
    sys.path.insert(0, str(ROOT / "tools"))
    import bench_report as module
    return module


def refuse_sanitized(report_module):
    for binary in (DRIVER, CLIENT):
        sanitizer = report_module.sanitizer_build(binary)
        if sanitizer is not None:
            raise BenchError(f"{binary} is a {sanitizer}-sanitizer build; "
                             "sanitized timings are not benchmark "
                             "results")


def build_type():
    cache = (BUILD_DIR / "CMakeCache.txt").read_text(errors="replace")
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    return match.group(1) if match and match.group(1) else "unknown"


# ------------------------------------------------------------------- sweeps

@dataclasses.dataclass
class Sweep:
    """Figures of one successful sweep (all its driver processes)."""
    records: int
    sweep_wall_s: float
    cpu_s: float
    maxrss_kb: int
    startup_s: float
    acquire_s: float
    setup_acquire_s: float
    run_wall_s: float
    thread_wall_s: float
    longest_run_s: float
    simd_isa: str

    def end_to_end(self):
        return {
            "records_per_sec": self.records / self.sweep_wall_s,
            "cpu_s_per_mrec": self.cpu_s / (self.records / 1e6),
            "peak_rss_mb": self.maxrss_kb / 1024.0,
            "setup_s": self.startup_s + self.setup_acquire_s,
        }


def run_key(process_index, run_id):
    """Trace a run reads: fig7 ids are 'workload/pP' and share the
    workload's trace; every ingest run opens its own file."""
    return f"{process_index}:{run_id.split('/')[0]}"


def fold_sweep(procs):
    """One Sweep from a sweep's successful processes."""
    records = wall = cpu = startup = acquire = run_wall = 0.0
    thread_wall = longest = 0.0
    maxrss = 0
    per_key = {}
    isa = "unknown"
    for index, proc in enumerate(procs):
        timing = proc.output["timing"]
        records += timing["records"]
        wall += timing["wall_s"]
        cpu += proc.cpu_s
        maxrss = max(maxrss, proc.maxrss_kb)
        startup += proc.wall_s - timing["wall_s"]
        acquire += timing["stages"]["acquire_s"]
        thread_wall += timing["threads"] * timing["wall_s"]
        isa = timing.get("simd_isa", isa)
        for run in timing["runs"]:
            run_wall += run["wall_s"]
            longest = max(longest, run["wall_s"])
            key = run_key(index, run["id"])
            per_key[key] = max(per_key.get(key, 0.0), run["acquire_s"])
    return Sweep(int(records), wall, cpu, maxrss, startup, acquire,
                 sum(per_key.values()), run_wall, thread_wall, longest, isa)


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.out_dir = BUILD_DIR / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # Report sha256 each driver label must reproduce. A replayed
        # trace without a pinned report takes its first replay's.
        self.references = {"fig7": FIG7_REPORT_SHA256}
        for name, sha in REPLAY_REPORT_SHA256.items():
            self.references[f"pinned-{name}"] = sha
            if seed == DRIVER_SEED:
                self.references[name] = sha
        self.deadline = time.monotonic() + DEADLINE_S
        self.traces = []
        if workload == REPLAY:
            self.traces = self.make_replay_inputs()
            self.check_pinned_replays()

    # Inputs --------------------------------------------------------------

    def make_replay_inputs(self):
        """Native trace files generated from the seed (not charged to
        the program); kept per seed, since the seed fixes them."""
        directory = BUILD_DIR / "inputs" / f"seed-{self.seed}"
        paths = [directory / f"{name}.stms" for name in REPLAY_TRACES]
        if not all(p.exists() for p in paths):
            directory.mkdir(parents=True, exist_ok=True)
            result = subprocess.run(
                [str(CLIENT), "gen", "--seed", str(self.seed),
                 "--records", str(REPLAY_RECORDS), "--out-dir",
                 str(directory), *REPLAY_TRACES],
                capture_output=True, text=True)
            if result.returncode != 0:
                raise BenchError("trace generation failed: " +
                                 result.stderr)
        return paths

    def run(self, cmd, out, log):
        timeout = min(PROCESS_TIMEOUT_S, self.deadline - time.monotonic())
        return run_process(cmd, out, log, max(timeout, 1.0))

    # Untraced sweeps -----------------------------------------------------

    def driver_commands(self):
        common = ["--no-progress", "--json"]
        if self.workload == REPLAY:
            return [(trace.stem,
                     [DRIVER, "--experiment", "ingest_replay", "--trace",
                      trace, *common]) for trace in self.traces]
        return [("fig7",
                 [DRIVER, "--experiment", "fig7", "--threads", "1",
                  f"records={FIG7_RECORDS}", *common])]

    def expected(self, label):
        return FIG7_RUN_IDS if label == "fig7" else REPLAY_RUN_IDS

    def run_driver(self, label, cmd):
        """Run one driver process and check its output; the process,
        or None when it failed."""
        out = self.out_dir / f"{label}.{os.getpid()}.json"
        proc = self.run([*cmd, out], out, self.out_dir / f"{label}.err")
        run_ids, model = [], None
        if proc.output is not None:
            run_ids = [r["id"] for r in
                       proc.output.get("timing", {}).get("runs", [])]
            model = canonical_report(proc.output)
        reason = check_output(
            proc.returncode, run_ids, self.expected(label), model,
            self.references.setdefault(label, model) if model else None)
        return proc if self.tally.record(f"driver {label}", reason) else None

    def check_pinned_replays(self):
        """Timing mode against pinned reports, once per invocation:
        replays of seeded traces have no pinned report of their own, so
        the driver's synthetic replay of each replayed workload must
        give its pinned one."""
        for name in REPLAY_TRACES:
            self.run_driver(f"pinned-{name}", [
                DRIVER, "--experiment", "ingest_replay", f"workload={name}",
                f"records={REPLAY_RECORDS}", "--no-progress", "--json"])

    def sweep(self):
        """One untraced sweep; None when any of its processes failed."""
        procs = [self.run_driver(label, cmd)
                 for label, cmd in self.driver_commands()]
        if None in procs:
            return None
        return fold_sweep(procs)

    def traced_sweep(self):
        """The sweep again in the traced client (one client process per
        driver process); None when any of them failed."""
        outputs = []
        for label, _ in self.driver_commands():
            out = self.out_dir / f"traced-{label}.{os.getpid()}.json"
            client = [CLIENT, "trace", "--out", out]
            if label == "fig7":
                client += ["--experiment", "fig7",
                           f"records={FIG7_RECORDS}"]
            else:
                client += ["--experiment", "ingest_replay", "--trace",
                           self.traces[REPLAY_TRACES.index(label)]]
            proc = self.run(client, out,
                            self.out_dir / f"traced-{label}.err")
            run_ids, model, reference = [], None, None
            if proc.output is not None:
                run_ids = [r["id"] for r in proc.output["runs"]]
                # The client also runs every run untraced and counts
                # the runs whose output differs from the traced one.
                report = canonical_report(proc.output["report"])
                mismatches = proc.output["plain_mismatches"]
                if label == "fig7":
                    model = (report, proc.output["digest"], mismatches)
                    reference = (FIG7_REPORT_SHA256, FIG7_DIGEST, 0)
                else:
                    model = (report, mismatches)
                    reference = (self.references.get(label), 0)
            reason = check_output(proc.returncode, run_ids,
                                  self.expected(label), model, reference)
            if self.tally.record(f"traced {label}", reason):
                outputs.append(proc.output)
        if len(outputs) != len(self.driver_commands()):
            return None
        return outputs

    def measure(self, seconds, traced):
        """Sweep until the next one would end past @p seconds (at least
        MIN_SWEEPS). With @p traced each untraced sweep is followed by
        the traced one, so the two see the same host conditions.
        Returns (sweep, traced outputs) pairs, None for failures, and
        the time taken."""
        start = time.monotonic()
        pairs = []
        durations = []
        while time.monotonic() < self.deadline and (
                len(durations) < MIN_SWEEPS or
                time.monotonic() - start + statistics.median(durations)
                <= seconds):
            began = time.monotonic()
            sweep = self.sweep()
            pairs.append((sweep, self.traced_sweep() if traced else None))
            durations.append(time.monotonic() - began)
        return pairs, time.monotonic() - start


# ------------------------------------------------------------------ metrics

def end_to_end_metrics(sweeps):
    values = [s.end_to_end() for s in sweeps]
    return {name: statistics.median(v[name] for v in values)
            for name in values[0]}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(sweep, traced):
    """Per-layer metrics of one untraced sweep and the traced sweep run
    right after it."""
    m = {}
    m["driver.acquire_s"] = sweep.acquire_s
    m["driver.worker_idle_ratio"] = 1.0 - sweep.run_wall_s / \
        sweep.thread_wall_s
    m["driver.longest_run_s"] = sweep.longest_run_s
    m["driver.startup_s"] = sweep.startup_s

    self_ns = dict.fromkeys(
        ("workload", "trace_io", "sim", "port", "core", "prefetch"), 0.0)
    spans = 0
    generate_ns = 0.0
    generated_records = 0
    acquires = generations = 0
    plain_ns = root_ns = subtree_ns = 0.0
    w = dict.fromkeys(("records", "events", "chunks", "stms_records",
                       "stride_calls", "accesses", "stms_accesses",
                       "offchip_reads", "l1_hits", "l1_misses", "l2_hits",
                       "l2_misses"), 0)
    stride = dict.fromkeys(("issued", "useful", "partial"), 0)
    stms = {}
    stms_calls = dict.fromkeys(_HOOKS, 0)
    requests = dict.fromkeys(_TRAFFIC, 0)
    span_cost = []
    for output in traced:
        inner = output["calibration"]["inner_ns"]
        outer = output["calibration"]["outer_ns"]
        span_cost.append(outer)
        acquires += output["cache"]["acquires"]
        generations += output["cache"]["generations"]
        longest_acquire = {}
        for run in output["runs"]:
            run_spans = 0
            for layer, t in run["layers"].items():
                self_ns[layer] += (t["self_ns"] - t["spans"] * inner -
                                   t["children"] * (outer - inner))
                run_spans += t["spans"]
            spans += run_spans
            # Each run is one acquire (or openSource) span plus the sim
            # span rooting everything else; the calibrated self times
            # under that root sum to its duration minus the span costs.
            root = run["layers"]["sim"]["total_ns"]
            root_ns += root
            subtree_ns += root - inner - (run_spans - 2) * outer
            plain_ns += run["plain_ns"]
            whole, window = run["whole_run"], run["window"]
            if run["synthetic"]:
                acquire = run["layers"]["workload"]["total_ns"] - inner
                previous = longest_acquire.get(run["key"], (0.0, 0))
                longest_acquire[run["key"]] = (max(previous[0], acquire),
                                               whole["records"])
            w["records"] += whole["records"]
            w["events"] += whole["events"]
            w["chunks"] += whole["chunks"]
            w["stride_calls"] += sum(whole["stride_calls"].values())
            w["accesses"] += window["accesses"]
            for key in ("offchip_reads", "l1_hits", "l1_misses",
                        "l2_hits", "l2_misses"):
                w[key] += window[key]
            for cls in _TRAFFIC:
                requests[cls] += window["mem_requests"][cls]
            for key in stride:
                stride[key] += window["stride"][key]
            if window["stms"] is not None:
                w["stms_records"] += whole["records"]
                w["stms_accesses"] += window["accesses"]
                for hook in _HOOKS:
                    stms_calls[hook] += whole["stms_calls"][hook]
                for key, value in window["stms"].items():
                    stms[key] = stms.get(key, 0) + value
        for ns, records in longest_acquire.values():
            generate_ns += ns
            generated_records += records

    m["workload.generate_s"] = generate_ns * 1e-9
    m["workload.ns_per_record"] = _ratio(generate_ns, generated_records)
    m["workload.traces_generated"] = generations
    m["workload.cache_hit_ratio"] = _ratio(acquires - generations, acquires)
    m["trace_io.read_s"] = self_ns["trace_io"] * 1e-9
    m["trace_io.chunks"] = w["chunks"]
    m["sim.self_s"] = self_ns["sim"] * 1e-9
    m["sim.ns_per_event"] = _ratio(self_ns["sim"], w["events"])
    m["sim.events_per_record"] = _ratio(w["events"], w["records"])
    m["sim.port_s"] = self_ns["port"] * 1e-9
    m["sim.l1_hit_ratio"] = _ratio(w["l1_hits"],
                                   w["l1_hits"] + w["l1_misses"])
    m["sim.l2_hit_ratio"] = _ratio(w["l2_hits"],
                                   w["l2_hits"] + w["l2_misses"])
    m["sim.offchip_reads_per_record"] = _ratio(w["offchip_reads"],
                                               w["accesses"])
    for cls in _TRAFFIC:
        m[f"sim.mem_requests.{cls}"] = _ratio(requests[cls], w["accesses"])
    m["core.self_s"] = self_ns["core"] * 1e-9
    m["core.ns_per_call"] = _ratio(self_ns["core"],
                                   sum(stms_calls.values()))
    for hook in _HOOKS:
        m[f"core.calls.{hook}"] = _ratio(stms_calls[hook],
                                         w["stms_records"])
    per_access = lambda key: _ratio(stms.get(key, 0), w["stms_accesses"])
    m["core.index_lookups"] = per_access("index_lookups")
    m["core.index_lookup_hit_ratio"] = _ratio(
        stms.get("index_lookup_hits", 0), stms.get("index_lookups", 0))
    m["core.index_updates"] = per_access("index_updates")
    m["core.index_replacements"] = per_access("index_replacements")
    m["core.bucket_buffer_hit_ratio"] = _ratio(
        stms.get("bucket_buffer_hits", 0),
        stms.get("bucket_buffer_hits", 0) +
        stms.get("bucket_buffer_misses", 0))
    m["core.history_appends"] = per_access("history_appends")
    m["core.prefetches_issued"] = per_access("issued")
    m["core.prefetch_accuracy"] = _ratio(
        stms.get("useful", 0) + stms.get("partial", 0),
        stms.get("issued", 0))
    m["prefetch.self_s"] = self_ns["prefetch"] * 1e-9
    m["prefetch.calls"] = _ratio(w["stride_calls"], w["records"])
    m["prefetch.accuracy"] = _ratio(stride["useful"] + stride["partial"],
                                    stride["issued"])
    m["trace.overhead_ratio"] = _ratio(plain_ns, root_ns)
    m["trace.spans"] = spans
    m["trace.span_cost_ns"] = statistics.mean(span_cost)
    m["trace.calibration_error_ratio"] = abs(_ratio(subtree_ns, plain_ns) - 1)
    return m


# --------------------------------------------------------------------- main

def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_table(title, metrics, values, unresolved=frozenset()):
    print(title)
    for metric in metrics:
        value = values[metric.name]
        status = "UNRESOLVED " if metric.name in unresolved else ""
        print(f"  {metric.name:34} {value:>16.6g} {metric.unit:6} "
              f"{status}({metric.better} is better) {metric.description}")


def main(argv=None):
    try:
        workloads, end_to_end, per_layer = load_spec()
    except BenchError as error:
        print(f"sweepbench: {error}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads)
    workload = args.workload
    try:
        check_checkout()
        report_module = bench_report()
        build()
        refuse_sanitized(report_module)
        bench = Bench(workload, args.seed)
        pairs, elapsed = bench.measure(args.seconds, args.trace)
    except BenchError as error:
        print(f"sweepbench: {error}", file=sys.stderr)
        return 2
    sweeps = [sweep for sweep, _ in pairs if sweep is not None]
    traced = [(sweep, outputs) for sweep, outputs in pairs
              if sweep is not None and outputs is not None]
    if not sweeps or (args.trace and not traced):
        print("sweepbench: no successful run; failures:\n  " +
              "\n  ".join(bench.tally.failures), file=sys.stderr)
        return 1

    tally = bench.tally
    seed_used = workload == REPLAY
    seed_note = ("generates the replayed traces" if seed_used else
                 "ignored: the driver generates fig7 from its fixed "
                 "seed 0x5742")
    print(f"sweepbench {workload}: seed {args.seed} ({seed_note}), "
          f"{len(sweeps)} sweeps in {elapsed:.1f} s")
    print(f"  runs attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_run_ratio {tally.failed / tally.attempted:g}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    e2e = end_to_end_metrics(sweeps)
    print_table("end-to-end (untraced; median over sweeps)", end_to_end,
                e2e)
    for metric in end_to_end:
        print(f"  sweeps {metric.name}: " + " ".join(
            f"{s.end_to_end()[metric.name]:.6g}" for s in sweeps))
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    stamp = {"workload": workload, "seed": args.seed,
             "seed_used": seed_used, "nproc": os.cpu_count(),
             "simd_isa": sweeps[0].simd_isa, "build_type": build_type(),
             "git": report_module.git_describe()}
    if args.trace:
        per_pair = [per_layer_metrics(*pair) for pair in traced]
        layers = {name: statistics.median(p[name] for p in per_pair)
                  for name in per_pair[0]}
        error = layers["trace.calibration_error_ratio"]
        resolved = error <= CALIBRATION_TOLERANCE
        stamp["layer_times"] = "measured" if resolved else "unresolved"
        print_table(f"per-layer (median over {len(traced)} untraced + "
                    "traced sweep pairs)", per_layer, layers,
                    frozenset() if resolved else CALIBRATED)
        if not resolved:
            print(f"  layer times UNRESOLVED: calibrated self times miss "
                  f"the untraced runs by {error:.3f} > "
                  f"{CALIBRATION_TOLERANCE}")
        chosen, values = per_layer, layers
    else:
        chosen, values = end_to_end, e2e

    print("stamp " + json.dumps(stamp))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in chosen},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
