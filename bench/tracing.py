"""In-process spans around the public functions of each tightrel module.

The benchmark's traced run replays a workload through tightrel.cli.main
with these wrappers installed.  The modules import each other by name, so
a function is replaced in every tightrel module namespace that binds it.
Spans stay in memory (name, start, end, parent index) until the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

WRAPPED = {
    "cli": ("main",),
    "designs": ("load_design", "coverage_map", "is_t_design"),
    "hamming": ("load_candidate", "relative_design_oracle"),
    "analysis": ("check_via_thm34", "is_tight"),
    "profiles": ("lambda_sequence", "conjecture2_scan"),
    "feasibility": (
        "scan_relative3", "scan_relative4", "annotate_existence", "rows_to_tsv",
        "brc_test", "symmetric_square_test", "driessen_test",
    ),
}
NAMES = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]
COUNTS = ("designs.coverage_map.entries", "hamming.oracle.subsets",
          "feasibility.scan3.rows", "feasibility.scan4.rows")


def lex_rank(n: int, subset) -> int:
    """Position of an ascending subset among the |subset|-subsets of
    range(n) in lexicographic order, from 0."""
    s, rank, prev = len(subset), 0, -1
    for i, x in enumerate(subset):
        for skipped in range(prev + 1, x):
            rank += math.comb(n - skipped - 1, s - i - 1)
        prev = x
    return rank


def oracle_subsets(cand, t, result) -> int:
    """Subsets the oracle had to test for its verdict: all of sizes 1..t
    when it holds, else every subset before the witness plus the witness."""
    n = cand.n
    if result[0]:
        return sum(math.comb(n, s) for s in range(1, t + 1))
    s, subset = result[1]
    return sum(math.comb(n, k) for k in range(1, s)) + lex_rank(n, subset) + 1


def _count(counts, name, args, result):
    if name == "designs.coverage_map":
        counts["designs.coverage_map.entries"] += len(result)
    elif name == "hamming.relative_design_oracle":
        counts["hamming.oracle.subsets"] += oracle_subsets(args[0], args[1], result)
    elif name == "feasibility.scan_relative3":
        counts["feasibility.scan3.rows"] += len(result)
    elif name == "feasibility.scan_relative4":
        counts["feasibility.scan4.rows"] += len(result)


class Tracer:
    """Install with `with Tracer() as tr:`; spans and counts accumulate in
    tr.spans and tr.counts until tr.reset()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def reset(self):
        self.spans, self.counts = [], defaultdict(int)

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            _count(self.counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        import tightrel  # noqa: F401  (loads every submodule)

        mods = [m for key, m in sys.modules.items() if key == "tightrel" or key.startswith("tightrel.")]
        for mod_name, fns in WRAPPED.items():
            owner = sys.modules[f"tightrel.{mod_name}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False


def layer_totals(spans) -> dict:
    """Per wrapped name: calls, total_s and self_s (duration minus the
    time covered by direct child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in NAMES}
    for (name, start, end, _), inner in zip(spans, child):
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - inner
    return out


def nesting_violations(spans) -> list:
    """Spans whose direct children's durations add up to more than their
    own duration, or lie outside it (beyond float rounding)."""
    child = [0.0] * len(spans)
    bad = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            p = spans[parent]
            if start < p[1] or end > p[2]:
                bad.append((i, name, "outside its parent"))
    for i, (name, start, end, _) in enumerate(spans):
        if child[i] > end - start + 1e-9:
            bad.append((i, name, f"children {child[i]:.6f}s > {end - start:.6f}s"))
    return bad
