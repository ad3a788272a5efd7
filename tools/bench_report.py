#!/usr/bin/env python3
"""Canonical perf_suite invocation + BENCH_*.json trajectory writer.

This script owns how the repo measures its own throughput:

  python3 tools/bench_report.py --driver build/driver

runs the pinned perf_suite sweep (fig7 plan, records=65536 unless
overridden), prints the throughput table, and appends one entry to the
repo-root trajectory artifact (BENCH_10.json by default; an absent
artifact is seeded from the newest earlier BENCH_*.json so the
trajectory stays one unbroken series across PRs).

Gating policy (docs/PERF.md): determinism gates — the model metrics
(everything not ending in a timing suffix: _s, _per_sec, _kb, _ratio,
or _chunks) must be bit-identical across thread counts and
schedules — plus one *resource* gate: the chunked pipeline's peak RSS
must stay within 1.25x serial (the whole point of streaming bounded
chunks instead of whole traces). Throughput numbers are
informational: they are recorded in the trajectory, never asserted
against, because shared CI runners make wall-clock assertions flaky.

Options:
  --records N            sweep length per core (default 65536; CI
                         smoke uses something small like 8192)
  --threads N            pipelined-schedule simulator pool (default 1
                         — same simulator count as the serial
                         schedule, so the RSS gate compares
                         inter-stage buffering, which is what the
                         chunked pipeline changed, instead of the
                         fan-out memory scaling any extra concurrent
                         run brings)
  --gate                 run the sweep at two pipeline thread counts
                         and fail unless all model metrics match;
                         also fail if pipeline peak RSS exceeds
                         1.25x serial (requires per-schedule RSS
                         isolation, i.e. writable /proc/self/clear_refs;
                         skipped with a warning when unavailable)
  --reference-binary P   also time an older driver binary on the same
                         pinned sweep (plain `--experiment fig7`) and
                         record the speedup of the current binary
  --telemetry-gate       measure the pinned fig7 sweep with telemetry
                         off vs on (--trace-out + --sample-every 4096)
                         and fail if enabled telemetry costs more
                         than 2% throughput (docs/OBSERVABILITY.md).
                         Interleaved best-of-N (--telemetry-reps)
                         using the driver's own records_per_sec, so
                         process startup and runner-to-runner noise
                         mostly cancel
  --telemetry-reps N     repetitions per arm of the telemetry gate
                         (default 5)
  --out PATH             trajectory file (default BENCH_10.json next
                         to this repo's root)
  --no-write             measure and print, do not touch the artifact
"""

import argparse
import datetime
import json
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMING_SUFFIXES = ("_s", "_per_sec", "_kb", "_ratio", "_chunks")

# The chunked pipeline's resource gate: streaming bounded chunks must
# keep pipelined peak RSS within this factor of the serial schedule.
RSS_GATE_RATIO = 1.25

# Telemetry overhead gate: the fig7 sweep with --trace-out +
# --sample-every enabled must keep >= this fraction of the
# telemetry-off throughput (i.e. <= 2% overhead).
TELEMETRY_GATE_RATIO = 0.98


def is_timing_metric(name: str) -> bool:
    return name.endswith(TIMING_SUFFIXES)


def sanitizer_build(binary) -> str | None:
    """Name of the sanitizer baked into ``binary``, or None.

    Sanitized builds run 2-20x slower, so their numbers must never
    enter the BENCH trajectory — one ASan entry would read as a
    catastrophic regression. Detected from the runtime symbols the
    instrumentation links in (works for static and shared runtimes).
    """
    try:
        blob = pathlib.Path(binary).read_bytes()
    except OSError:
        return None
    for marker, name in ((b"__tsan_init", "thread"),
                         (b"__asan_init", "address"),
                         (b"__ubsan_handle", "undefined")):
        if marker in blob:
            return name
    return None


def run_perf_suite(driver, records, threads, extra=()):
    """Run perf_suite once; return its full report dict."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [
            str(driver), "--experiment", "perf_suite", "--json",
            tmp.name, f"records={records}", f"threads={threads}",
            *extra,
        ]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return json.load(open(tmp.name))


def model_digest(metrics):
    return "%08x%08x" % (int(metrics["model_digest_hi"]),
                         int(metrics["model_digest_lo"]))


def time_reference_sweep(binary, records):
    """Wall-time a plain fig7 sweep — the invocation shape every
    driver version supports, so old binaries can be compared."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [
            str(binary), "--experiment", "fig7", "--json", tmp.name,
            f"records={records}",
        ]
        start = time.monotonic()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return time.monotonic() - start


def compare_reference_sweep(reference, current, records, reps=3):
    """Interleaved best-of-N wall times for both binaries. Same
    rationale as the telemetry gate: transient host slowdowns hit
    both arms, and best-of discards them — a single-shot pair on a
    shared machine can swing the ratio by +/-10%."""
    ref_best = float("inf")
    cur_best = float("inf")
    for _ in range(reps):
        ref_best = min(ref_best,
                       time_reference_sweep(reference, records))
        cur_best = min(cur_best,
                       time_reference_sweep(current, records))
    return ref_best, cur_best


def fig7_records_per_sec(driver, records, extra=(), out_dir=None):
    """One pinned fig7 sweep; return the driver-reported aggregate
    throughput (excludes process startup, unlike wall-timing the
    subprocess)."""
    with tempfile.NamedTemporaryFile(suffix=".json",
                                     dir=out_dir) as tmp:
        cmd = [
            str(driver), "--experiment", "fig7", "--json", tmp.name,
            f"records={records}", *extra,
        ]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        report = json.load(open(tmp.name))
    return report["timing"]["records_per_sec"]


def measure_telemetry_overhead(driver, records, reps):
    """Interleaved best-of-N throughput with telemetry off vs fully
    on. Interleaving + best-of makes a 2% gate meaningful on noisy
    shared runners: transient slowdowns hit both arms equally and the
    best rep approaches each arm's true speed."""
    with tempfile.TemporaryDirectory() as scratch:
        on_extra = ("--trace-out", f"{scratch}/trace.json",
                    "--sample-every", "4096")
        off_best = 0.0
        on_best = 0.0
        for _ in range(reps):
            off_best = max(off_best,
                           fig7_records_per_sec(driver, records))
            on_best = max(on_best,
                          fig7_records_per_sec(driver, records,
                                               on_extra))
    return off_best, on_best


def model_metrics(metrics):
    return {k: v for k, v in metrics.items() if not is_timing_metric(k)}


def print_table(metrics):
    rows = [("schedule", "records/s", "wall s", "peak RSS MB")]
    for mode in ("serial", "pipeline"):
        rows.append((
            mode,
            f"{metrics[f'{mode}.records_per_sec']:,.0f}",
            f"{metrics[f'{mode}.wall_s']:.2f}",
            f"{metrics[f'{mode}.peak_rss_kb'] / 1024:.1f}",
        ))
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", default=REPO_ROOT / "build/driver")
    parser.add_argument("--records", type=int, default=65536)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--gate", action="store_true")
    parser.add_argument("--reference-binary")
    parser.add_argument("--telemetry-gate", action="store_true")
    parser.add_argument("--telemetry-reps", type=int, default=5)
    parser.add_argument("--out", default=REPO_ROOT / "BENCH_10.json")
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args()

    report = run_perf_suite(args.driver, args.records, args.threads)
    metrics = report["metrics"]
    print_table(metrics)

    if args.gate:
        # Determinism gate: a different pipelined worker count must
        # reproduce every model metric bit for bit. (perf_suite
        # additionally asserts serial == pipelined internally.)
        other = run_perf_suite(args.driver, args.records,
                               args.threads + 1)["metrics"]
        a, b = model_metrics(metrics), model_metrics(other)
        if not a or a != b:
            print("determinism gate FAILED:", file=sys.stderr)
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    print(f"  {key}: {a.get(key)} != {b.get(key)}",
                          file=sys.stderr)
            return 1
        print(f"determinism gate OK: {len(a)} model metrics "
              f"bit-identical across pipeline thread counts "
              f"{args.threads} and {args.threads + 1}")

        # Resource gate: the chunked pipeline exists to bound
        # residency, so its peak RSS must stay within
        # RSS_GATE_RATIO x serial. Only meaningful when the driver
        # could isolate each schedule's watermark (clear_refs).
        if metrics.get("rss_isolated_ratio", 0.0) >= 1.0:
            serial_rss = metrics["serial.peak_rss_kb"]
            pipeline_rss = metrics["pipeline.peak_rss_kb"]
            ratio = pipeline_rss / max(serial_rss, 1.0)
            if ratio > RSS_GATE_RATIO:
                print(f"RSS gate FAILED: pipeline peak RSS "
                      f"{pipeline_rss / 1024:.1f} MB is {ratio:.2f}x "
                      f"serial ({serial_rss / 1024:.1f} MB), limit "
                      f"{RSS_GATE_RATIO}x", file=sys.stderr)
                return 1
            print(f"RSS gate OK: pipeline peak RSS is {ratio:.2f}x "
                  f"serial (limit {RSS_GATE_RATIO}x)")
        else:
            print("RSS gate skipped: /proc/self/clear_refs not "
                  "writable, per-schedule RSS isolation unavailable",
                  file=sys.stderr)

    telemetry = None
    if args.telemetry_gate:
        off_rps, on_rps = measure_telemetry_overhead(
            args.driver, args.records, args.telemetry_reps)
        ratio = on_rps / off_rps if off_rps > 0 else 0.0
        telemetry = {
            "telemetry_off_records_per_sec": off_rps,
            "telemetry_on_records_per_sec": on_rps,
            "telemetry_on_off_ratio": ratio,
        }
        if ratio < TELEMETRY_GATE_RATIO:
            print(f"telemetry overhead gate FAILED: enabled telemetry "
                  f"runs at {ratio:.3f}x the disabled throughput "
                  f"({on_rps:,.0f} vs {off_rps:,.0f} records/s, "
                  f"limit {TELEMETRY_GATE_RATIO}x)", file=sys.stderr)
            return 1
        print(f"telemetry overhead gate OK: enabled telemetry keeps "
              f"{ratio:.3f}x of disabled throughput "
              f"(limit {TELEMETRY_GATE_RATIO}x, best of "
              f"{args.telemetry_reps})")

    entry = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "git": git_describe(),
        "records": int(metrics["records"]),
        "runs": int(metrics["runs"]),
        "model_digest": model_digest(metrics),
    }
    for mode in ("serial", "pipeline"):
        for field in ("records_per_sec", "wall_s", "acquire_s",
                      "simulate_s", "peak_rss_kb"):
            entry[f"{mode}_{field}"] = metrics[f"{mode}.{field}"]
    # Chunked-pipeline residency telemetry (PR 6): the chunk size the
    # sweep ran with, how many chunks were ever live at once, and the
    # RSS ratio the gate above enforces (with whether the per-schedule
    # watermark isolation that makes the ratio meaningful was active).
    for field in ("pipeline.chunk_records_chunks",
                  "pipeline.peak_resident_chunks",
                  "pipeline_rss_ratio", "rss_isolated_ratio"):
        if field in metrics:
            entry[field.replace(".", "_")] = metrics[field]
    # Telemetry overhead measurement (PR 8): instrumentation-off vs
    # -on throughput on the same pinned sweep.
    if telemetry is not None:
        entry.update(telemetry)

    if args.reference_binary:
        # Same pinned sweep, same machine, both binaries, identical
        # external invocation (plain fig7) — the apples-to-apples
        # basis of the speedup claim.
        ref_wall, new_wall = compare_reference_sweep(
            args.reference_binary, args.driver, args.records)
        entry["reference"] = {
            "binary": str(args.reference_binary),
            "fig7_wall_s": ref_wall,
            "current_fig7_wall_s": new_wall,
            "speedup": ref_wall / new_wall if new_wall > 0 else 0.0,
        }
        print(f"reference sweep: {ref_wall:.2f}s -> {new_wall:.2f}s "
              f"({ref_wall / new_wall:.2f}x)")

    if args.no_write:
        return 0

    sanitizer = sanitizer_build(args.driver)
    if sanitizer is not None:
        print(f"NOT recording: driver is a {sanitizer}-sanitizer "
              "build; sanitized timings never enter the BENCH "
              "trajectory (rerun with --no-write to silence this)")
        return 0

    out = pathlib.Path(args.out)
    trajectory = {"bench": "perf_suite",
                  "pinned_sweep": "fig7 (standard suite x {1.0, "
                                  "0.125} sampling, functional mode)",
                  "entries": []}
    if out.exists() and out.stat().st_size > 0:
        trajectory = json.load(open(out))
    else:
        seed = newest_earlier_trajectory(out)
        if seed is not None:
            trajectory = json.load(open(seed))
            print(f"seeded {out.name} from {seed.name} "
                  f"({len(trajectory['entries'])} prior entries)")
    trajectory["entries"].append(entry)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(trajectory, indent=2) + "\n")
    tmp.replace(out)
    print(f"recorded entry {len(trajectory['entries'])} in {out}")
    return 0


def newest_earlier_trajectory(out):
    """The BENCH_*.json (other than @p out) with the highest numeric
    suffix — the previous PR's artifact, whose entries seed this one
    so the trajectory stays one unbroken series across PRs."""
    candidates = []
    for path in out.parent.glob("BENCH_*.json"):
        if path.name == out.name:
            continue
        suffix = path.stem.removeprefix("BENCH_")
        if suffix.isdigit():
            candidates.append((int(suffix), path))
    if not candidates:
        return None
    return max(candidates)[1]


def git_describe():
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "describe", "--always",
             "--dirty"],
            check=True, capture_output=True,
            text=True).stdout.strip()
    except Exception:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
