#!/usr/bin/env python3
"""Telemetry overhead gate, plus the build helpers sweepbench imports.

  python3 tools/bench_report.py --driver build/driver

runs the pinned fig7 sweep with telemetry off and fully on
(--trace-out + --sample-every 4096), interleaved, takes the best of
--telemetry-reps driver-reported timing.records_per_sec per arm, and
fails when the on/off ratio falls below 0.98: the <=2% overhead
contract of docs/OBSERVABILITY.md. Interleaving and best-of make the
gate meaningful on noisy shared machines: transient slowdowns hit
both arms, and the best rep approaches each arm's true speed.

Options:
  --driver PATH          driver binary (default build/driver)
  --records N            sweep length per core (default 65536; CI
                         uses 8192)
  --telemetry-reps N     repetitions per arm (default 5)

sweepbench/run.py imports sanitizer_build() and git_describe() from
this module, so importing it has no side effects.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Enabled telemetry must keep >= this fraction of the telemetry-off
# throughput (i.e. <= 2% overhead).
TELEMETRY_GATE_RATIO = 0.98


def sanitizer_build(binary) -> str | None:
    """Name of the sanitizer baked into ``binary``, or None.

    Sanitized builds run 2-20x slower, so their timings are never
    benchmark results. Detected from the runtime symbols the
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


def git_describe():
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "describe", "--always",
             "--dirty"],
            check=True, capture_output=True,
            text=True).stdout.strip()
    except Exception:
        return "unknown"


def fig7_records_per_sec(driver, records, extra=()):
    """One pinned fig7 sweep; return the driver-reported aggregate
    throughput (excludes process startup, unlike wall-timing the
    subprocess)."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [
            str(driver), "--experiment", "fig7", "--json", tmp.name,
            f"records={records}", *extra,
        ]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        report = json.load(open(tmp.name))
    return report["timing"]["records_per_sec"]


def measure_telemetry_overhead(driver, records, reps):
    """Interleaved best-of-N throughput with telemetry off vs on."""
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


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--driver", default=REPO_ROOT / "build/driver")
    parser.add_argument("--records", type=int, default=65536)
    parser.add_argument("--telemetry-reps", type=int, default=5)
    args = parser.parse_args()

    off_rps, on_rps = measure_telemetry_overhead(
        args.driver, args.records, args.telemetry_reps)
    ratio = on_rps / off_rps if off_rps > 0 else 0.0
    if ratio < TELEMETRY_GATE_RATIO:
        print(f"telemetry overhead gate FAILED: enabled telemetry "
              f"runs at {ratio:.3f}x the disabled throughput "
              f"({on_rps:,.0f} vs {off_rps:,.0f} records/s, "
              f"limit {TELEMETRY_GATE_RATIO}x)", file=sys.stderr)
        return 1
    print(f"telemetry overhead gate OK: enabled telemetry keeps "
          f"{ratio:.3f}x of disabled throughput "
          f"({on_rps:,.0f} vs {off_rps:,.0f} records/s, "
          f"limit {TELEMETRY_GATE_RATIO}x, best of "
          f"{args.telemetry_reps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
