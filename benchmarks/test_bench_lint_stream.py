"""Bench: the symbolic op-stream tier's full-repo wall time.

The stream tier (compile entry points at the probe image count, run the
cross-rank matcher and the CAF011+ perf pack) is the expensive half of
``repro.lint``; this budget keeps it viable as a CI gate and as an
editor-save check.  The cold pass covers every Python file under
``src/`` and ``examples/`` — the trees the self-apply gate lints — and
the results land in ``BENCH_lint_stream.json`` at the repo root:

* ``full_repo`` — wall time for the symbolic pass alone (the sum of
  ``check_stream`` over every file) and for the whole pipeline, plus
  file/entry counts.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_lint_stream.py -q
"""

import ast
import json
import os
import sys
import time
from pathlib import Path

from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.model import build_model
from repro.lint.stream.interp import entry_functions

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_lint_stream.json"

TREES = [str(REPO_ROOT / d) for d in ("src", "examples")]

#: Seconds allowed for a cold symbolic pass over src/ + examples/.
MAX_SECONDS = 3.0


def _merge(section: str, payload) -> None:
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    data.setdefault("meta", {}).update(
        python=sys.version.split()[0],
        platform=sys.platform,
        cpus=os.cpu_count(),
    )
    data[section] = payload
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_symbolic_pass_under_budget():
    from repro.lint.engine import syntactic_findings
    from repro.lint.stream import check_stream

    # Parse, model, and run the syntactic tier untimed — the symbolic
    # pass proper is the sum of check_stream() over every file.
    prepared = []
    nentries = 0
    for path in iter_python_files(TREES):
        source = Path(path).read_text()
        try:
            model = build_model(ast.parse(source), path)
        except SyntaxError:
            continue
        nentries += len(entry_functions(model))
        prepared.append((model, syntactic_findings(model)))

    t0 = time.perf_counter()
    for model, syntactic in prepared:
        check_stream(model, syntactic)
    symbolic = time.perf_counter() - t0

    # Whole-pipeline wall time.
    t0 = time.perf_counter()
    report = lint_paths(TREES)
    cold = time.perf_counter() - t0

    nfiles = len(prepared)
    assert report.nfiles >= nfiles

    _merge(
        "full_repo",
        {
            "files": nfiles,
            "entry_points": nentries,
            "symbolic_seconds": round(symbolic, 4),
            "cold_seconds": round(cold, 4),
            "budget_seconds": MAX_SECONDS,
        },
    )
    assert symbolic < MAX_SECONDS, (
        f"symbolic pass took {symbolic:.2f}s over {nfiles} files "
        f"({nentries} entry points; budget {MAX_SECONDS}s)"
    )
