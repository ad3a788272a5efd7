"""Shared plumbing for the repo-invariant linters (tools/lint).

Each linter module exposes ``LINT_NAME`` and ``check(root) ->
list[Violation]`` where ``root`` is the repository root.  The linters
are deliberately regex/structure based (stdlib only, no compiler
needed): they enforce *repo conventions* — which identifiers may
appear where — not C++ semantics, which clang-tidy covers.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding, formatted gcc-style so editors can jump to it."""

    path: str  # Repo-relative, forward slashes.
    line: int  # 1-based.
    lint: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.lint}] {self.message}"


SOURCE_EXTENSIONS = (".cc", ".hh")


def iter_source_files(root, subdirs=("src",)):
    """Yield (relative_posix_path, text) for every C++ source file."""
    root = pathlib.Path(root)
    for subdir in subdirs:
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_EXTENSIONS and path.is_file():
                rel = path.relative_to(root).as_posix()
                yield rel, path.read_text(encoding="utf-8")


_COMMENT_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/",
    re.DOTALL,
)


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line numbers."""

    def _blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return _COMMENT_RE.sub(_blank, text)


_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def strip_strings(text: str) -> str:
    """Blank out string literal contents, preserving line numbers."""

    def _blank(match: re.Match) -> str:
        return '"' + " " * (len(match.group(0)) - 2) + '"'

    return _STRING_RE.sub(_blank, text)


def line_of(text: str, offset: int) -> int:
    """1-based line number of character ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1


def extract_call(text: str, open_paren: int) -> str:
    """Return the argument text of a call whose '(' is at
    ``open_paren``, up to the matching ')' (best-effort: ignores
    parens inside string literals because callers pass
    comment-stripped but string-bearing text through strip_strings
    first when that matters)."""
    depth = 0
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : i]
    return text[open_paren + 1 :]
