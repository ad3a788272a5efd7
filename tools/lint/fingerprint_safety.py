"""Fingerprint-safety lint: timing data must never reach store
records or fingerprints.

The repo's determinism story (docs/DETERMINISM.md, driver/report.hh)
hinges on one rule: wall-clock observations live under the JSON
``timing`` key and nowhere else.  ``Report::toResultRecord()`` — the
path into the result store, and from there into fingerprint-addressed
records and snapshot diffs — must never serialize the timing block or
sampled series, and experiments must not smuggle timing through
``addMetric`` keys.  The timing suffixes (``_s``, ``_per_sec``,
``_kb``, ``_ratio``, ``_chunks``) mark the deliberate exceptions:
bench experiments whose suffixed metrics downstream gates
(tools/bench_report.py) strip before comparing.

Checks:

1. ``Report::toResultRecord`` in src/driver/report.cc must not
   reference ``timing_`` or ``samples``.
2. The JSON keys ``\"timing\"`` / ``\"samples\"`` may be emitted only
   by src/driver/report.cc (the one renderer).
3. ``addMetric`` keys ending in a timing suffix are allowed only in
   the bench-experiment allowlist (their records are gated by
   tools/bench_report.py, which strips timing suffixes), plus the
   documented legacy exceptions that cannot be renamed without
   breaking stored-record compatibility.
"""

from __future__ import annotations

import re

from lintlib import (
    Violation,
    extract_call,
    function_body,
    iter_source_files,
    line_of,
    strip_comments,
)

LINT_NAME = "fingerprint-safety"

TIMING_SUFFIXES = ("_s", "_per_sec", "_kb", "_ratio", "_chunks")

#: Files whose timing-suffixed metrics are *meant* to be timing:
#: bench experiments gated by tools/bench_report.py, which strips
#: these suffixes before any determinism comparison.
TIMING_METRIC_FILES = frozenset(
    {
        "src/driver/experiments/perf_suite.cc",
    }
)

#: (file, key-literal) pairs grandfathered in: deterministic model
#: metrics whose names collide with a timing suffix.  Renaming them
#: would break stored-record and snapshot compatibility, so they are
#: pinned here instead — do NOT add new entries; pick a suffix-free
#: name for new model metrics.
LEGACY_KEY_EXCEPTIONS = frozenset(
    {
        ("src/driver/experiments/fig9_performance.cc",
         "mean_stms_ideal_ratio"),
    }
)

RENDERER = "src/driver/report.cc"

_ADD_METRIC_RE = re.compile(r"\baddMetric\s*(\()")
_STRING_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
_JSON_KEY_RE = re.compile(r'\\"(timing|samples)\\"')


def _first_argument(call_args: str) -> str:
    """The first top-level argument of a call's argument text."""
    depth = 0
    for i, ch in enumerate(call_args):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            return call_args[:i]
    return call_args


def _key_suffix(arg: str) -> str | None:
    """If the metric-key expression ends in a string literal, return
    that literal's text (the key's tail — concatenated prefixes can
    only prepend to it)."""
    literals = _STRING_RE.findall(arg)
    if not literals:
        return None
    if not arg.rstrip().endswith('"'):
        return None  # Key ends in a runtime expression; tail unknown.
    return literals[-1]


def check(root):
    violations = []
    for rel, text in iter_source_files(root):
        code = strip_comments(text)

        # Rule 2: only the renderer writes the timing/samples keys.
        if rel != RENDERER:
            for match in _JSON_KEY_RE.finditer(code):
                violations.append(
                    Violation(
                        rel,
                        line_of(code, match.start()),
                        LINT_NAME,
                        f'JSON key "{match.group(1)}" emitted outside '
                        f"{RENDERER}; timing data has exactly one "
                        "renderer so it can be excluded from "
                        "fingerprints in exactly one place",
                    )
                )

        # Rule 3: timing-suffixed metric keys only in bench files.
        for match in _ADD_METRIC_RE.finditer(code):
            args = extract_call(code, match.end() - 1)
            tail = _key_suffix(_first_argument(args))
            if tail is None:
                continue
            suffix = next(
                (s for s in TIMING_SUFFIXES if tail.endswith(s)), None
            )
            if suffix is None:
                continue
            if rel in TIMING_METRIC_FILES:
                continue
            if (rel, tail) in LEGACY_KEY_EXCEPTIONS:
                continue
            violations.append(
                Violation(
                    rel,
                    line_of(code, match.start()),
                    LINT_NAME,
                    f'metric key ending "...{tail}" uses timing '
                    f'suffix "{suffix}": timing belongs under the '
                    "timing key (Report::setTiming), not in metrics "
                    "that reach toResultRecord() and fingerprinted "
                    "store records",
                )
            )

    # Rule 1: toResultRecord never touches timing or samples.
    renderer_path = None
    renderer_text = None
    for rel, text in iter_source_files(root):
        if rel == RENDERER:
            renderer_path, renderer_text = rel, text
            break
    if renderer_text is not None:
        code = strip_comments(renderer_text)
        start, body = function_body(
            code, r"Report::toResultRecord\s*\(\s*\)\s*const"
        )
        if start >= 0:
            for needle in ("timing_", "samples"):
                offset = body.find(needle)
                if offset >= 0:
                    violations.append(
                        Violation(
                            renderer_path,
                            line_of(code, start + offset),
                            LINT_NAME,
                            f"toResultRecord() references {needle}: "
                            "timing/samples must never reach store "
                            "records or fingerprints",
                        )
                    )
    return violations
