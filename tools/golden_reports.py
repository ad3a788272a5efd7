#!/usr/bin/env python3
"""Compare the driver's figure reports with the committed goldens.

Runs fig7 (meta-data traffic per workload at both index-update
samplings) and table2 (MLP of off-chip reads) at records=4096 with
``--no-timing --json`` and compares each report's ``metrics`` with
``tests/data/golden/<experiment>.json``. Two values match when

    |after - before| <= ABS_TOL + REL_TOL * max(|before|, |after|)

REL_TOL absorbs cross-machine libm noise in trace synthesis; a model
change moves these figures by far more. A metric missing from either
side fails too. Every drifting metric is printed with its golden
(before) value, the new (after) value and the relative delta.

  tools/golden_reports.py --driver build/driver
      compare; exit 1 on any drift (ctest runs this as golden.reports)

  tools/golden_reports.py --driver build/driver --write
      rewrite the goldens from the current driver. Do this only after
      checking that a figure change is intended.
"""

import argparse
import json
import pathlib
import subprocess
import sys

EXPERIMENTS = ("fig7", "table2")
OPTIONS = ("records=4096",)
REL_TOL = 0.05
ABS_TOL = 1e-9
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / \
    "tests" / "data" / "golden"


def run_report(driver: pathlib.Path, experiment: str) -> str:
    """The driver's --no-timing JSON report of one experiment."""
    proc = subprocess.run(
        [str(driver.resolve()), "--experiment", experiment,
         "--no-timing", "--no-progress", "--json", "-", *OPTIONS],
        check=True, stdout=subprocess.PIPE, text=True)
    return proc.stdout


def close(before, after) -> bool:
    # jsonNumber renders a non-finite metric as null.
    if before is None or after is None:
        return before is None and after is None
    return abs(after - before) <= ABS_TOL + REL_TOL * max(abs(before),
                                                          abs(after))


def relative(before, after) -> str:
    if before is None or after is None:
        return "n/a"
    if before == 0:
        return "inf" if after != 0 else "+0.00%"
    return f"{(after - before) / abs(before):+.2%}"


def compare(experiment: str, golden: dict, current: dict) -> list[str]:
    """One line per metric that drifted, went missing or appeared."""
    drifts = []
    for name, before in golden.items():
        if name not in current:
            drifts.append(f"{experiment}: {name} missing "
                          f"(golden {before})")
            continue
        after = current[name]
        if not close(before, after):
            drifts.append(f"{experiment}: {name} {before} -> {after} "
                          f"({relative(before, after)})")
    for name, after in current.items():
        if name not in golden:
            drifts.append(f"{experiment}: {name} not in golden "
                          f"(now {after})")
    return drifts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--driver", default="build/driver",
                        help="driver binary (default: build/driver)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the goldens instead of comparing")
    args = parser.parse_args()

    driver = pathlib.Path(args.driver)
    if not driver.exists():
        print(f"driver not found: {driver}", file=sys.stderr)
        return 1

    drifts = []
    compared = 0
    for experiment in EXPERIMENTS:
        report = run_report(driver, experiment)
        path = GOLDEN_DIR / f"{experiment}.json"
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(report)
            print(f"wrote {path}")
            continue
        if not path.exists():
            drifts.append(f"{experiment}: no golden at {path}")
            continue
        golden = json.loads(path.read_text())["metrics"]
        current = json.loads(report)["metrics"]
        compared += len(golden)
        drifts.extend(compare(experiment, golden, current))

    if args.write:
        return 0
    for line in drifts:
        print(line)
    print(f"golden reports: {compared} metrics compared "
          f"(rel_tol={REL_TOL} abs_tol={ABS_TOL}), {len(drifts)} drifted")
    return 1 if drifts else 0


if __name__ == "__main__":
    sys.exit(main())
