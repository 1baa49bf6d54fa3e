"""CLI: render RunReports, validate and diff artifacts; live-telemetry
``top`` view; scaling-law fitting.

Usage::

    python -m repro.obs render RUNREPORT.json            # human tables
    python -m repro.obs render RUNREPORT.json --prom     # Prometheus text
    python -m repro.obs validate ARTIFACT|DIR [...]      # schema check
    python -m repro.obs diff OLD.json NEW.json           # regression triage
    python -m repro.obs diff OLD.json NEW.json --threshold 5 --fail
    python -m repro.obs diff BASE.json N1.json N2.json --all  # N vs baseline
    python -m repro.obs top RUN.telemetry.jsonl          # live/final view
    python -m repro.obs top RUN.telemetry.jsonl --follow # tail a running run
    python -m repro.obs scaling R4.json R8.json R16.json --out scaling.json

``diff --fail`` exits 1 when any metric moved beyond the threshold — the
bench-regression tripwire CI uses on archived reports. ``--all`` compares
every NEW report against the baseline in one invocation and exits 1 (with
``--fail``) if any comparison regresses; it reads run reports and IR
replay results (``point-NN.replay.json``), which flatten to the same row
names. ``validate`` checks every kind :func:`repro.obs.artifact.kinds`
names — run reports, scaling reports, telemetry streams, IR traces (loaded
and replayed), replay results, sweep summaries, the chaos ledger and Chrome
traces — and a directory argument stands for every file in it, e.g. for
what one ``repro.obs.capture`` wrote: files that are not ours are named and
skipped, a malformed one exits 2 naming the file and the failing field.
``scaling --fail`` exits 1 on any expectation
or static-crosscheck mismatch (the Fig. 4 tripwire: ``mpi.flush_all``
must fit linear-in-P, GASNet ``event_notify`` must not).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs import artifact
from repro.obs.artifact import SchemaError
from repro.obs.report import RunReport, diff_reports_all


def _validate(args: list[pathlib.Path]) -> int:
    """One line per artifact; a directory stands for the files in it, where
    files that are not ours are named and skipped."""
    for arg in args:
        named = not arg.is_dir()
        paths = [arg] if named else sorted(p for p in arg.iterdir() if p.is_file())
        for path in paths:
            found = artifact.check(path)
            if found is not None:
                print(f"{path}: ok ({found.label})")
            elif named:
                raise SchemaError(f"{path}: not an artifact this repo writes")
            elif path.suffix != ".npz" or not path.with_suffix(".json").exists():
                # (An .npz beside a manifest is that trace's array half.)
                print(f"{path}: skipped (not an artifact this repo writes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render, validate, diff, and analyze repro run artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="pretty-print a report")
    p_render.add_argument("report", type=pathlib.Path)
    p_render.add_argument(
        "--prom", action="store_true", help="emit Prometheus text instead of tables"
    )

    p_validate = sub.add_parser(
        "validate",
        help="schema-check artifacts (reports, telemetry, IR traces, ...) or directories of them",
    )
    p_validate.add_argument("reports", type=pathlib.Path, nargs="+")

    p_diff = sub.add_parser("diff", help="compare reports against a baseline")
    p_diff.add_argument("old", type=pathlib.Path, help="baseline report")
    p_diff.add_argument("new", type=pathlib.Path, nargs="+")
    p_diff.add_argument(
        "--all",
        action="store_true",
        help="compare every NEW report against OLD in one invocation",
    )
    p_diff.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        help="percent change considered significant (default 5)",
    )
    p_diff.add_argument(
        "--fail",
        action="store_true",
        help="exit 1 if any metric moved beyond the threshold",
    )

    p_top = sub.add_parser("top", help="render a live-telemetry JSONL stream")
    p_top.add_argument("telemetry", type=pathlib.Path)
    p_top.add_argument(
        "--follow",
        action="store_true",
        help="keep re-rendering until the final snapshot lands",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval for --follow (default 1s)",
    )
    p_top.add_argument(
        "--max-wait", type=float, default=None, metavar="S",
        help="with --follow: give up (exit 2) after S wall seconds",
    )

    p_scaling = sub.add_parser(
        "scaling", help="fit per-op scaling laws across a rank sweep of reports"
    )
    p_scaling.add_argument(
        "reports", type=pathlib.Path, nargs="+",
        help="RunReports of one app/backend at >= 3 rank counts",
    )
    p_scaling.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the ScalingReport JSON artifact to this path",
    )
    p_scaling.add_argument(
        "--tol", type=float, default=5.0, metavar="PCT",
        help="NRMSE acceptance tolerance in percent (default 5)",
    )
    p_scaling.add_argument(
        "--expect", action="append", default=[], metavar="KIND=ORDER",
        help="declare an expectation (order: const/log/linear/poly); "
        "repeatable, overrides the backend defaults",
    )
    p_scaling.add_argument(
        "--no-default-expectations", action="store_true",
        help="only check expectations given via --expect",
    )
    p_scaling.add_argument(
        "--no-crosscheck", action="store_true",
        help="skip the static cost-model order cross-check",
    )
    p_scaling.add_argument(
        "--fail", action="store_true",
        help="exit 1 on any expectation or static-crosscheck mismatch",
    )

    args = parser.parse_args(argv)

    try:
        if args.command == "render":
            report = RunReport.load(str(args.report))
            print(report.to_prometheus() if args.prom else report.render(), end="")
            if not args.prom:
                print()
            return 0
        if args.command == "validate":
            return _validate(args.reports)
        if args.command == "top":
            return _top(args)
        if args.command == "scaling":
            return _scaling(args)
        # diff
        if len(args.new) > 1 and not args.all:
            parser.error("multiple NEW reports require --all")
        old = artifact.flatten(args.old)
        news = [artifact.flatten(p) for p in args.new]
        diffs = diff_reports_all(
            old,
            news,
            baseline_label=args.old.name,
            labels=[p.name for p in args.new],
        )
        threshold = args.threshold / 100.0
        failed = 0
        for path, diff in zip(args.new, diffs):
            if args.all:
                print(f"== {args.old.name} vs {path.name} ==")
            print(diff.render(threshold=threshold))
            if args.all:
                print()
            if diff.regressions(threshold):
                failed += 1
        if args.all:
            print(
                f"{failed}/{len(diffs)} report(s) regressed beyond "
                f"{args.threshold:.1f}% vs {args.old.name}"
            )
        if args.fail and failed:
            return 1
        return 0
    except (FileNotFoundError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _top(args) -> int:
    from repro.obs.live import follow_top, read_telemetry, render_top

    if args.follow:
        return follow_top(
            args.telemetry, interval=args.interval, max_wait=args.max_wait
        )
    meta, snaps = read_telemetry(args.telemetry)
    print(render_top(meta, snaps))
    return 0


def _scaling(args) -> int:
    from repro.obs.scaling import (
        ScalingReport,
        fit_scaling,
        parse_expectations,
    )

    reports = [RunReport.load(str(p)) for p in args.reports]
    scaling: ScalingReport = fit_scaling(
        reports,
        tol=args.tol / 100.0,
        expectations=parse_expectations(args.expect),
        use_default_expectations=not args.no_default_expectations,
        crosscheck=not args.no_crosscheck,
    )
    print(scaling.render())
    if args.out is not None:
        scaling.to_json(str(args.out))
        print(f"scaling report -> {args.out}")
    mismatches = (
        scaling.data["summary"]["expectation_mismatches"]
        + scaling.data["summary"]["crosscheck_mismatches"]
    )
    if args.fail and mismatches:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
