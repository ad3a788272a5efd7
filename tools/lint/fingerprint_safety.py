"""Fingerprint-safety lint: timing data must never reach report
metrics.

The repo's determinism story (driver/report.hh) hinges on one rule:
wall-clock observations live under the JSON ``timing`` key and
nowhere else.  A report's metrics and tables are its model output:
the golden reports (tools/golden_reports.py) and the ``--no-timing``
byte-compares check them, and the model digests fingerprint the
same model output, hence the name.  Experiments must not smuggle
timing into report metrics through ``addMetric`` keys, so a metric
key may not end in a timing suffix (``_s``, ``_per_sec``, ``_kb``,
``_ratio``) in any file.

Checks:

1. The JSON keys ``\"timing\"`` / ``\"samples\"`` may be emitted only
   by src/driver/report.cc (the one renderer).
2. ``addMetric`` keys ending in a timing suffix are findings, except
   the documented legacy keys that cannot be renamed without
   changing a pinned report.
"""

from __future__ import annotations

import re

from lintlib import (
    Violation,
    extract_call,
    iter_source_files,
    line_of,
    strip_comments,
)

LINT_NAME = "fingerprint-safety"

TIMING_SUFFIXES = ("_s", "_per_sec", "_kb", "_ratio")

#: (file, key-literal) pairs grandfathered in: deterministic model
#: metrics whose names collide with a timing suffix.  Renaming one
#: changes fig9's pinned report (the --no-timing JSON that the
#: byte-identity checks compare), so they are pinned here instead —
#: do NOT add new entries; pick a suffix-free name for new model
#: metrics.
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

        # Rule 1: only the renderer writes the timing/samples keys.
        if rel != RENDERER:
            for match in _JSON_KEY_RE.finditer(code):
                violations.append(
                    Violation(
                        rel,
                        line_of(code, match.start()),
                        LINT_NAME,
                        f'JSON key "{match.group(1)}" emitted outside '
                        f"{RENDERER}; timing data has exactly one "
                        "renderer so it stays out of report metrics "
                        "in exactly one place",
                    )
                )

        # Rule 2: no timing-suffixed metric keys.
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
            if (rel, tail) in LEGACY_KEY_EXCEPTIONS:
                continue
            violations.append(
                Violation(
                    rel,
                    line_of(code, match.start()),
                    LINT_NAME,
                    f'metric key ending "...{tail}" uses timing '
                    f'suffix "{suffix}": timing belongs under the '
                    "timing key (Report::setTiming), not in report "
                    "metrics",
                )
            )
    return violations
