"""Lock-discipline lint: RAII guards only, and no std::function on
hot paths.

Two invariants the concurrency work depends on:

1. Mutexes are held through RAII guards (lock_guard / unique_lock /
   scoped_lock / shared_lock), never via naked ``mutex.lock()`` /
   ``mutex.unlock()`` calls — an early return or exception between a
   naked pair deadlocks the sweep.  Calling ``.lock()`` /
   ``.unlock()`` *on a guard object* (unique_lock's deliberate
   unlock-relock window in trace_cache.cc) is the sanctioned
   exception, so the lint resolves the receiver: a call is flagged
   only when the receiver variable was not declared as a guard type
   in the same file.
2. The event-queue hot path was converted from std::function to
   InplaceFunction (no heap allocation per scheduled event);
   reintroducing std::function there is a silent perf regression the
   benchmarks only catch later.  The ban list names the converted
   files; cold callbacks elsewhere may keep std::function.
3. The per-run data-plane structures (index buckets, history buffers,
   prefetch buffers, the flat MSHR map) allocate through the run
   arena (common/arena.hh: ArenaBuffer); raw ``new``,
   ``malloc``-family calls, or ``make_unique`` in those files
   reintroduce the per-run global-heap traffic the arena exists to
   eliminate.  ZeroedBuffer (calloc semantics for stat counters) stays
   sanctioned: it lives outside the banned files and is not a per-run
   hot-path allocation.
"""

from __future__ import annotations

import re

from lintlib import (
    Violation,
    iter_source_files,
    line_of,
    strip_comments,
    strip_strings,
)

LINT_NAME = "lock-discipline"

#: Hot-path files whose callbacks are InplaceFunction (the event
#: queue, TimedCallback, and the memory backends every completion
#: passes through); std::function is banned here (per-event /
#: per-request heap allocation).
HOT_PATH_NO_STD_FUNCTION = frozenset(
    {
        "src/sim/event_queue.hh",
        "src/common/types.hh",
        "src/sim/mem_backend.hh",
        "src/sim/mem_queued.hh",
        "src/sim/mem_queued.cc",
        "src/sim/mem_dram.hh",
        "src/sim/mem_dram.cc",
    }
)

#: Arena-managed hot-path files (PR 10): every allocation here must go
#: through ArenaBuffer, never the global heap.
ARENA_MANAGED_NO_RAW_ALLOC = frozenset(
    {
        "src/common/addr_map.hh",
        "src/core/history_buffer.cc",
        "src/core/history_buffer.hh",
        "src/core/index_bucket.hh",
        "src/prefetch/prefetch_buffer.cc",
        "src/prefetch/prefetch_buffer.hh",
    }
)

_GUARD_DECL_RE = re.compile(
    r"std::(?:unique_lock|lock_guard|scoped_lock|shared_lock)\s*"
    r"<[^>]*>\s+(\w+)"
)
_LOCK_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*(lock|unlock)\s*\(\s*\)")
_STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")
_RAW_ALLOC_RE = re.compile(
    r"\bnew\b|\b(?:malloc|calloc|realloc)\s*\(|\bmake_unique\s*<"
)


def check(root):
    violations = []
    for rel, text in iter_source_files(root):
        code = strip_strings(strip_comments(text))

        guard_names = set(_GUARD_DECL_RE.findall(code))
        for match in _LOCK_CALL_RE.finditer(code):
            receiver, method = match.group(1), match.group(2)
            if receiver in guard_names:
                continue
            violations.append(
                Violation(
                    rel,
                    line_of(code, match.start()),
                    LINT_NAME,
                    f"naked {receiver}.{method}(): hold mutexes "
                    "through an RAII guard (std::lock_guard / "
                    "std::unique_lock) so early returns and "
                    "exceptions cannot leak the lock",
                )
            )

        if rel in HOT_PATH_NO_STD_FUNCTION:
            for match in _STD_FUNCTION_RE.finditer(code):
                violations.append(
                    Violation(
                        rel,
                        line_of(code, match.start()),
                        LINT_NAME,
                        "std::function on a hot path converted to "
                        "InplaceFunction (common/inplace_function.hh)"
                        ": std::function heap-allocates per callback "
                        "and regresses the event queue",
                    )
                )

        if rel in ARENA_MANAGED_NO_RAW_ALLOC:
            for match in _RAW_ALLOC_RE.finditer(code):
                violations.append(
                    Violation(
                        rel,
                        line_of(code, match.start()),
                        LINT_NAME,
                        "raw heap allocation in an arena-managed "
                        "hot-path file: use ArenaBuffer "
                        "(common/arena.hh) so per-run "
                        "storage comes from the run arena",
                    )
                )
    return violations
