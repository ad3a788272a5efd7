#!/usr/bin/env python3
"""Telemetry overhead gate, plus the build helpers sweepbench imports.

  python3 tools/bench_report.py --driver build/driver

runs the pinned fig7 sweep at records=8192 in 150 back-to-back
pairs, once with telemetry off and once fully on (--trace-out +
--sample-every 4096), flipping which arm goes first from one pair to
the next. Each pair gives the ratio of the two driver-reported
timing.records_per_sec values (on / off). The gate fails when the
median ratio falls below 0.98: the <=2% overhead contract of
docs/OBSERVABILITY.md. It also prints the ratios' quartiles and a
distribution-free 95% interval for the median, from order statistics
of the binomial.

Pairing is what makes the verdict hold on a host whose speed drifts
from run to run: both runs of a pair mostly see the same speed, so
the ratio cancels it, and the median over many short pairs ignores
the pairs a speed change split. 150 pairs at about 0.25 s per run
take under a minute and a half.

Options:
  --driver PATH   driver binary (default build/driver)

sweepbench/run.py imports sanitizer_build() and git_describe() from
this module, so importing it has no side effects.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Enabled telemetry must keep >= this fraction of the telemetry-off
# throughput (i.e. <= 2% overhead).
TELEMETRY_GATE_RATIO = 0.98
# Sweep length per core of each gate run, and off/on pairs per gate.
GATE_RECORDS = 8192
GATE_PAIRS = 150


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


def paired_overhead_ratios(driver, records, pairs):
    """On/off throughput ratio of each back-to-back pair; the arm that
    runs first alternates."""
    ratios = []
    with tempfile.TemporaryDirectory() as scratch:
        on_extra = ("--trace-out", f"{scratch}/trace.json",
                    "--sample-every", "4096")
        for pair in range(pairs):
            if pair % 2 == 0:
                off = fig7_records_per_sec(driver, records)
                on = fig7_records_per_sec(driver, records, on_extra)
            else:
                on = fig7_records_per_sec(driver, records, on_extra)
                off = fig7_records_per_sec(driver, records)
            ratios.append(on / off)
    return ratios


def median_interval(values, confidence=0.95):
    """Distribution-free interval for the median of ``values``.

    The k-th smallest of n values lies above the true median only
    when fewer than k values fall below it, which has probability
    P(Binomial(n, 1/2) < k); the k-th largest lies below it with the
    same probability. The interval runs from the k-th smallest to the
    k-th largest value, for the largest k whose two tails together
    stay within 1 - ``confidence``.
    """
    ordered = sorted(values)
    n = len(ordered)
    tail = 0.0
    k = 0
    while k < n // 2:
        tail += math.comb(n, k) / 2 ** n
        if 2 * tail > 1.0 - confidence:
            break
        k += 1
    if k == 0:
        return ordered[0], ordered[-1]
    return ordered[k - 1], ordered[n - k]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--driver", default=REPO_ROOT / "build/driver")
    args = parser.parse_args()

    ratios = paired_overhead_ratios(args.driver, GATE_RECORDS,
                                    GATE_PAIRS)
    median = statistics.median(ratios)
    low, high = median_interval(ratios)
    quartiles = statistics.quantiles(ratios, n=4)
    summary = (f"median on/off ratio {median:.3f} over {len(ratios)} "
               f"pairs, 95% interval [{low:.3f}, {high:.3f}], "
               f"quartiles [{quartiles[0]:.3f}, {quartiles[2]:.3f}], "
               f"limit {TELEMETRY_GATE_RATIO}")
    if median < TELEMETRY_GATE_RATIO:
        print(f"telemetry overhead gate FAILED: {summary}",
              file=sys.stderr)
        return 1
    print(f"telemetry overhead gate OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
