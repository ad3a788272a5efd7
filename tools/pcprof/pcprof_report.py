#!/usr/bin/env python3
"""Fold pcprof samples into CPU shares by source file, by function and
by component.

    python3 tools/pcprof/pcprof_report.py PROFILE... [--top N]
                                          [--json OUT] [--root DIR]

Each PROFILE is a pcprof.PID.txt file written by libpcprof.so, or a
directory holding such files; all their samples pool. Report against
the binaries that were profiled: an object rebuilt since is warned
about, as its symbols no longer match the sampled PCs. Every sampled PC
is symbolized with ``addr2line -a -f -i -C`` against the object it was
sampled in, giving its inline chain from the innermost frame outward.

The file and function tables charge a sample to the innermost frame: a
std::push_heap step inlined into EventQueue::enqueue counts as
bits/stl_heap.h and std::__push_heap. Files under --root (default: the
repository) print relative to it, others by their last two path
components. The component table charges it to the first stms:: class
on the chain, walking outward past free functions (findFirstEqual),
the generic accessors in PASS_THROUGH and frames outside stms::, so a
findFirstEqual inlined into Cache::findWay counts as Cache. A chain
with no such class counts as "(no class)" and its object.

Each row prints its share with a binomial 95% (Wilson score) interval,
so rows from a before and an after profile can be compared: shares
whose intervals overlap are not shown to differ. --json writes the
same tables as {"samples", "processes", "files", "functions",
"components"}.
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
# Generic storage whose accessors inline into the class that holds
# them: a sample there belongs to that class.
PASS_THROUGH = frozenset(("ArenaBuffer", "ZeroedBuffer"))


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


def parse_chains(text):
    """pc -> [(function, location), ...] from ``addr2line -a -f -i``
    output: each address line is followed by its innermost frame's
    function/location pair, then those of the outer inline frames."""
    chains = {}
    chain = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
            chain = chains.setdefault(int(lines[i], 16), [])
            i += 1
        elif chain is not None and i + 1 < len(lines):
            chain.append((lines[i], lines[i + 1]))
            i += 2
        else:
            i += 1
    return chains


def symbolize(obj, pcs):
    """pc -> inline chain, innermost frame first."""
    if not pathlib.Path(obj).is_file():
        return {}
    text = "".join(f"{pc:#x}\n" for pc in pcs)
    proc = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                          input=text, stdout=subprocess.PIPE, text=True,
                          check=True)
    return parse_chains(proc.stdout)


def scope(function):
    """The leading identifier of each top-level ``::`` part of a
    demangled name ('' for lambdas and anonymous namespaces):
    stms::detail::BucketStore::lookup(unsigned long) gives
    ['stms', 'detail', 'BucketStore', 'lookup']."""
    # An operator's symbol would unbalance the bracket count.
    name = re.sub(r"\boperator(\(\)|\[\]|[^\w\s(]+)", "operator",
                  function)
    parts, depth, start = [], 0, 0
    for i, char in enumerate(name):
        if char in "<({[":
            depth += 1
        elif char in ">)}]":
            depth -= 1
        elif depth == 0 and name.startswith("::", i):
            parts.append(name[start:i])
            start = i + 2
    parts.append(name[start:])
    return [m.group(0) if (m := re.match(r"[A-Za-z_]\w*", part)) else ""
            for part in parts]


def component(chain):
    """The first stms:: class on an inline chain, innermost first,
    or None. Namespaces are lower-case and classes upper-case, so the
    class is a name's first capitalized scope after stms."""
    for function, _ in chain:
        parts = scope(function)
        if parts[0] != "stms":
            continue
        for part in parts[1:-1]:
            if part[:1].isupper():
                if part not in PASS_THROUGH:
                    return part
                break
    return None


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
    by_component = collections.Counter()
    per_object = collections.defaultdict(list)
    for obj, pc in counts:
        per_object[obj].append(pc)
    for obj, pcs in per_object.items():
        chains = symbolize(obj, sorted(pcs))
        name = pathlib.Path(obj).name
        for pc in pcs:
            chain = chains.get(pc) or [("??", "??:0")]
            function, location = chain[0]
            file = short_file(location, root)
            hits = counts[(obj, pc)]
            by_file[file or f"?? ({name})"] += hits
            by_function[function if function != "??"
                        else f"?? ({name})"] += hits
            by_component[component(chain) or f"(no class) {name}"] += hits
    return by_file, by_function, by_component


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
    tables = fold(counts, pathlib.Path(args.root).resolve())
    unknown = total - sum(counts.values())
    if unknown:
        for table in tables:
            table["?? (outside any object)"] += unknown

    report = {"samples": total, "processes": len(files)}
    print(f"pcprof: {total} samples from {len(files)} processes")
    for key, title, table in zip(("files", "functions", "components"),
                                 ("file", "function", "component"),
                                 tables):
        report[key] = rows(table, total, args.top)
        print_table(title, report[key])
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
