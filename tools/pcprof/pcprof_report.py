#!/usr/bin/env python3
"""Fold pcprof samples into CPU shares by source file and by function.

    python3 tools/pcprof/pcprof_report.py PROFILE... [--top N]
                                          [--json OUT] [--root DIR]

Each PROFILE is a pcprof.PID.txt file written by libpcprof.so, or a
directory holding such files; all their samples pool. Report against
the binaries that were profiled: an object rebuilt since is warned
about, as its symbols no longer match the sampled PCs. Every sampled PC
is symbolized with ``addr2line -a -f -i -C`` against the object it was
sampled in, and charged to the innermost frame of its inline chain: a
std::push_heap step inlined into EventQueue::enqueue counts as
bits/stl_heap.h and std::__push_heap. Files under --root (default: the
repository) print relative to it, others by their last two path
components.

Each row prints its share with a binomial 95% (Wilson score) interval,
so rows from a before and an after profile can be compared: shares
whose intervals overlap are not shown to differ. --json writes the
same tables as {"samples", "processes", "files", "functions"}.
"""

import argparse
import collections
import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
Z95 = 1.959964


def wilson(hits, total, z=Z95):
    """Binomial 95% interval of hits/total (Wilson score)."""
    if total == 0:
        return 0.0, 0.0
    p = hits / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total +
                         z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def profile_files(paths):
    files = []
    for path in map(pathlib.Path, paths):
        if path.is_dir():
            files.extend(sorted(path.glob("pcprof.*.txt")))
        else:
            files.append(path)
    return files


def check_unchanged(obj, mtime, size):
    """Warn when an object was rebuilt after it was profiled: its
    symbols no longer match the profile's PCs."""
    try:
        st = pathlib.Path(obj).stat()
    except OSError:
        return
    if (int(st.st_mtime), st.st_size) != (mtime, size):
        print(f"pcprof_report: warning: {obj} changed since it was "
              "profiled; its rows are misattributed", file=sys.stderr)


def read_profiles(files):
    """(object path, relative PC) -> samples, pooled over files; plus
    the sample total (with samples outside any object)."""
    counts = collections.Counter()
    total = 0
    stamps = {}
    for path in files:
        modules = {}
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                header = line.split()
                total += int(header[header.index("unknown") + 1])
                continue
            if line.startswith("module "):
                _, index, mtime, size, obj = line.split(" ", 4)
                modules[index] = obj
                stamps[obj] = (int(mtime), int(size))
                continue
            module, pc, count = line.split()
            pc, count = int(pc, 16), int(count)
            counts[(modules[module], pc)] += count
            total += count
    for obj, (mtime, size) in stamps.items():
        check_unchanged(obj, mtime, size)
    return counts, total


def symbolize(obj, pcs):
    """pc -> (function, file) of the innermost inline frame."""
    frames = {}
    if not pathlib.Path(obj).is_file():
        return frames
    text = "".join(f"{pc:#x}\n" for pc in pcs)
    proc = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                          input=text, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
            # The first function/location pair after an address is
            # its innermost frame; outer inline frames follow.
            if i + 2 < len(lines):
                frames[int(lines[i], 16)] = (lines[i + 1], lines[i + 2])
            i += 3
        else:
            i += 1
    return frames


def short_file(location, root):
    path = re.sub(r" \(discriminator \d+\)$", "", location)
    path = path.rsplit(":", 1)[0]
    if path in ("", "??"):
        return None
    try:
        return str(pathlib.Path(path).resolve().relative_to(root))
    except ValueError:
        return "/".join(pathlib.Path(path).parts[-2:])


def fold(counts, root):
    by_file = collections.Counter()
    by_function = collections.Counter()
    per_object = collections.defaultdict(list)
    for obj, pc in counts:
        per_object[obj].append(pc)
    for obj, pcs in per_object.items():
        frames = symbolize(obj, sorted(pcs))
        name = pathlib.Path(obj).name
        for pc in pcs:
            function, location = frames.get(pc, ("??", "??:0"))
            file = short_file(location, root)
            hits = counts[(obj, pc)]
            by_file[file or f"?? ({name})"] += hits
            by_function[function if function != "??"
                        else f"?? ({name})"] += hits
    return by_file, by_function


def rows(counter, total, top):
    out = []
    for name, hits in counter.most_common(top):
        lo, hi = wilson(hits, total)
        out.append({"name": name, "samples": hits,
                    "share": hits / total if total else 0.0,
                    "lo": lo, "hi": hi})
    return out


def print_table(title, table):
    print(f"\nby {title}")
    print(f"  {'share':>6}  {'95% interval':>16}  {'samples':>8}  name")
    for row in table:
        interval = f"[{row['lo']:.1%}, {row['hi']:.1%}]"
        print(f"  {row['share']:6.1%}  {interval:>16}  "
              f"{row['samples']:8d}  {row['name']}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("profiles", nargs="+",
                        help="pcprof.PID.txt files or directories")
    parser.add_argument("--top", type=int, default=25,
                        help="rows per table (default 25)")
    parser.add_argument("--json", help="also write the tables here")
    parser.add_argument("--root", default=str(ROOT),
                        help="print source files relative to this")
    args = parser.parse_args()

    files = profile_files(args.profiles)
    if not files:
        sys.exit("pcprof_report: no pcprof.*.txt profiles found")
    counts, total = read_profiles(files)
    by_file, by_function = fold(counts,
                                pathlib.Path(args.root).resolve())
    unknown = total - sum(counts.values())
    if unknown:
        by_file["?? (outside any object)"] += unknown
        by_function["?? (outside any object)"] += unknown

    report = {"samples": total, "processes": len(files),
              "files": rows(by_file, total, args.top),
              "functions": rows(by_function, total, args.top)}
    print(f"pcprof: {total} samples from {len(files)} processes")
    print_table("file", report["files"])
    print_table("function", report["functions"])
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
