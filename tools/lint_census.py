"""Line census of ``repro.lint``: ``PYTHONPATH=src python tools/lint_census.py``

Traces ``src/repro/lint`` under its non-test traffic (ci.yml's CLI runs, self-apply,
``--list-rules``, ``--predict`` x3, ``predict_file(spec=)``) and then its tier-1 tests,
and prints per file the statements (``ast.stmt`` in a function body; no docstrings, defs
or imports) neither reached. Minutes under the tracer: a command, not a tier-1 test.
"""
import ast
import contextlib
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
LINT = str(ROOT / "src" / "repro" / "lint")
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
TREES = ["examples", "src/repro/apps"]
TESTS = ["tests/lint", "tests/obs/test_scaling.py", "tests/test_design_guards.py"]
hits: set[tuple[str, int]] = set()


def tracer(frame, event, arg):
    if event == "call":  # the global hook: trace only frames of repro.lint
        return tracer if frame.f_code.co_filename.startswith(LINT) else None
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return tracer


def statements(path: pathlib.Path) -> set[int]:
    defs = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, SKIP[:2])]
    bodies = [fn.body[1:] if ast.get_docstring(fn) is not None else fn.body for fn in defs]
    return {n.lineno for body in bodies for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.stmt) and not isinstance(n, SKIP)}


if __name__ == "__main__":
    threading.settrace(tracer)
    sys.settrace(tracer)  # before the imports: functions run at import time count too
    import pytest
    from repro.lint.cli import main
    from repro.lint.stream import predict_file
    from repro.platforms import PLATFORMS
    runs = [TREES, ["--format", "sarif", "--no-ignore", *TREES], ["src"], ["--list-rules"]]
    runs += [["--predict", "--nranks", str(n), *TREES] for n in (4, 8, 16)]
    with contextlib.redirect_stdout(None):  # print() to a None stdout is silent
        for argv in runs:
            main(argv)
        for app in sorted((ROOT / "src/repro/apps").glob("*.py")):
            predict_file(app, spec=next(iter(PLATFORMS.values())))
    pytest.main(["-q", "-p", "no:cacheprovider", *TESTS])
    sys.settrace(None)
    missed = total = 0
    for path in sorted(pathlib.Path(LINT).rglob("*.py")):
        stmts = statements(path)
        miss = sorted(line for line in stmts if (str(path), line) not in hits)
        missed, total = missed + len(miss), total + len(stmts)
        if miss:
            print(f"{path.relative_to(ROOT)}: {len(miss)} of {len(stmts)} unreached: {miss}")
    print(f"{missed} of {total} statements reached by neither the non-test traffic nor tier-1")
