"""CLI: ``python -m repro.lint <paths...>``.

Exits 1 when any unsuppressed finding remains, 0 on a clean tree — so CI
can gate on it. ``--no-ignore`` also counts suppressed findings (used to
assert that ``examples/deadlock_demo.py`` carries exactly the one
intentional Fig. 2 finding). ``--format sarif`` emits a SARIF 2.1.0 log
for code-scanning upload; ``--predict`` prints each entry point's pre-run
communication prediction as JSON instead of linting.
"""

from __future__ import annotations

import argparse
import json

from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.rules import RULES


def _list_rules() -> str:
    lines = ["repro.lint rules:"]
    for rule in RULES.values():
        paper = f"  [{rule.paper}]" if rule.paper else ""
        lines.append(f"  {rule.id}  {rule.name}{paper}")
        lines.append(f"         {rule.summary}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static CAF/MPI/GASNet protocol checker (no execution).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to report (e.g. CAF001,CAF006)",
    )
    parser.add_argument(
        "--no-ignore",
        action="store_true",
        help="count findings suppressed by # repro: lint-ignore as violations",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule registry")
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (sarif: SARIF 2.1.0 for code-scanning upload)",
    )
    parser.add_argument(
        "--predict",
        action="store_true",
        help="print each entry point's static communication prediction as "
        "JSON (per-kind calls/bytes, P x P comm matrix) instead of linting",
    )
    parser.add_argument(
        "--nranks",
        type=int,
        default=4,
        help="image count for --predict (default 4)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in select if r.upper() not in RULES]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")

    if args.predict:
        return _predict(args)

    report = lint_paths(args.paths, select=select)
    if args.format == "sarif":
        from repro.lint.sarif import to_sarif_text

        print(to_sarif_text(report, show_suppressed=args.no_ignore))
    else:
        print(report.to_text(show_suppressed=args.no_ignore))
    bad = report.findings if args.no_ignore else report.active
    return 1 if bad else 0


def _predict(args: argparse.Namespace) -> int:
    from repro.lint.stream import predict_file

    out = []
    for path in iter_python_files(args.paths):
        try:
            for pred in predict_file(path, nranks=args.nranks):
                out.append(pred.to_dict())
        except SyntaxError:
            continue
    print(json.dumps(out, indent=2))
    return 0
