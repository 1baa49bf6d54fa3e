"""Line census of ``repro.lint``: which statements does its traffic reach?

    PYTHONPATH=src python tools/lint_census.py [unreached.json]

Traces ``src/repro/lint`` under the non-test traffic (ci.yml's CLI runs,
self-apply over ``src``, ``--list-rules``, ``--predict`` at three image counts,
``predict_file(spec=)``) and then under the tier-1 tests that import it, and
prints per file how many statements (each ``ast.stmt`` in a function body but
docstrings, defs and imports) neither reached. ~5 min traced: not a tier-1 test.
"""
import ast, contextlib, io, json, pathlib, sys, threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
LINT = ROOT / "src" / "repro" / "lint"
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
hits: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(LINT)) else None


def statements(path: pathlib.Path) -> set[int]:
    out = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(node, ast.stmt) and not isinstance(node, SKIP):
                    out.add(node.lineno)
    return out


def traffic() -> None:
    from repro.lint.cli import main
    from repro.lint.stream import predict_file
    from repro.platforms import PLATFORMS

    trees = ["examples", "src/repro/apps"]
    runs = [trees, ["--format", "sarif", "--no-ignore", *trees], ["src"], ["--list-rules"]]
    runs += [["--predict", "--nranks", str(n), *trees] for n in (4, 8, 16)]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            main(argv)
        for app in sorted((ROOT / "src/repro/apps").glob("*.py")):
            predict_file(app, spec=next(iter(PLATFORMS.values())))
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", "tests/lint", "tests/obs/test_scaling.py",
                 "tests/test_design_guards.py"])


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    traffic()
    sys.settrace(None)
    unreached = {}
    for path in sorted(LINT.rglob("*.py")):
        stmts = statements(path)
        miss = sorted(line for line in stmts if (str(path), line) not in hits)
        unreached[str(path.relative_to(ROOT))] = (miss, len(stmts))
        if miss:
            print(f"{path.relative_to(ROOT)}: {len(miss)} of {len(stmts)} unreached")
    total = sum(n for _, n in unreached.values())
    print(f"{sum(len(m) for m, _ in unreached.values())} of {total} statements "
          "reached by neither the non-test traffic nor tier-1")
    if len(sys.argv) > 1:
        pathlib.Path(sys.argv[1]).write_text(json.dumps({f: m for f, (m, _) in unreached.items() if m}))
