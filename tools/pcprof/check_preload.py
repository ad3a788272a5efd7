#!/usr/bin/env python3
"""Check that profiling with pcprof leaves the driver's output alone.

    python3 tools/pcprof/check_preload.py --driver build/driver \\
        --preload build/libpcprof.so --out DIR

Runs fig7 at records=4096 with --no-timing twice, once plainly and
once with libpcprof.so preloaded, and fails unless the two JSON
reports are byte-identical and the profiled run wrote a profile that
pcprof_report.py can read. ctest runs this as pcprof.preload.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def report(driver, env=None):
    return subprocess.run(
        [driver, "--experiment", "fig7", "--no-timing", "--no-progress",
         "--json", "-", "records=4096"],
        check=True, stdout=subprocess.PIPE, env=env).stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver", required=True)
    parser.add_argument("--preload", required=True)
    parser.add_argument("--out", required=True,
                        help="directory for the profile (emptied first)")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plain = report(args.driver)
    env = dict(os.environ, LD_PRELOAD=str(pathlib.Path(args.preload)
                                          .resolve()),
               PCPROF_DIR=str(out))
    profiled = report(args.driver, env)
    if plain != profiled:
        sys.exit("pcprof.preload: the profiled fig7 report differs")
    profiles = list(out.glob("pcprof.*.txt"))
    if len(profiles) != 1:
        sys.exit(f"pcprof.preload: expected one profile, found "
                 f"{len(profiles)}")
    subprocess.run([sys.executable, str(HERE / "pcprof_report.py"),
                    str(out), "--top", "5"], check=True)
    print("pcprof.preload: reports identical with and without the "
          "preload")


if __name__ == "__main__":
    main()
