"""Bench: whole-repo lint wall time.

A protocol checker only gets run if it is fast enough to sit in the
inner development loop. The budget here covers a cold full-repo pass —
every Python file under src/, tests/, examples/, and benchmarks/ —
parsed, modeled, and checked. The implementation keeps this linear:
one AST parse per file, memoized per-function op streams, and a
fixed-sweep (≤4) tag/taint fixpoint over precomputed assignment facts.
"""

import time
from pathlib import Path

from repro.lint.engine import lint_paths

REPO = Path(__file__).parents[1]
TREES = [str(REPO / d) for d in ("src", "tests", "examples", "benchmarks")]

#: Seconds allowed per file of a cold full-repo pass: a per-file budget,
#: because the repo grows (200 files when this was written, 313 now) and a
#: total would rot with it. Generous vs. the ~10 ms observed, but tight
#: enough to catch an accidental O(functions * assignments) regression in
#: the model fixpoint.
MAX_SECONDS_PER_FILE = 0.020


def test_full_repo_lint_under_budget(benchmark):
    report = benchmark.pedantic(lambda: lint_paths(TREES), rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.max
    assert report.nfiles > 150
    per_file = elapsed / report.nfiles
    assert per_file < MAX_SECONDS_PER_FILE, (
        f"full-repo lint took {elapsed:.2f}s over {report.nfiles} files: "
        f"{per_file * 1e3:.1f} ms per file (budget "
        f"{MAX_SECONDS_PER_FILE * 1e3:.0f} ms)"
    )


def test_lint_gate_paths_are_clean_and_fast():
    gate = [str(REPO / "examples"), str(REPO / "src" / "repro" / "apps")]
    t0 = time.perf_counter()
    report = lint_paths(gate)
    elapsed = time.perf_counter() - t0
    assert report.clean, "\n" + report.to_text()
    assert elapsed < 1.0
