#!/usr/bin/env python3
"""Fail on dead relative links in README.md and docs/*.md.

Scans markdown inline links/images (``[text](target)``) in the files
the repo's docs job cares about, resolves relative targets against
the containing file, and exits nonzero listing every target that does
not exist. External (http/https/mailto) links and pure in-page
anchors are skipped; a ``#fragment`` on a relative link is stripped
before the existence check.

Usage: python3 tools/check_links.py [repo_root]
"""

import pathlib
import re
import sys

# Inline links, tolerating one level of nested brackets in the text
# (e.g. image-in-link). Reference-style links are not used here.
LINK = re.compile(r"\[(?:[^\[\]]|\[[^\]]*\])*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def check_file(path: pathlib.Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    # Links inside fenced code blocks are illustrative, not navigable.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path}: dead link -> {target}")
    return errors


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    # Docs other pages or CI depend on by name: their *absence* must
    # fail too, not just dead links to them.
    for required in ("ARCHITECTURE.md", "OBSERVABILITY.md", "PERF.md",
                     "STATIC_ANALYSIS.md", "TRACE_FORMATS.md"):
        if root / "docs" / required not in files:
            files.append(root / "docs" / required)
    errors = []
    checked = 0
    for path in files:
        if not path.exists():
            errors.append(f"missing expected file: {path}")
            continue
        checked += 1
        errors.extend(check_file(path))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} markdown files, "
          f"{len(errors)} dead links")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
