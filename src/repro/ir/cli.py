"""CLI for the trace IR: ``python -m repro.ir {record,replay,sweep,validate}``.

Usage::

    python -m repro.ir record --out traces/ra.npz randomaccess --procs 8
    python -m repro.ir replay --trace traces/ra --platform edison
    python -m repro.ir replay --trace traces/ra --set latency=5e-6 --out ra.json
    python -m repro.ir sweep --trace traces/ra --vary latency=1e-6,2e-6,4e-6 \\
        --vary bandwidth=5e9,1e10 --out sweeps/ra
    python -m repro.ir validate traces/ra traces/fft
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.ir.replay import check_trace, replay
from repro.ir.sweep import SweepPoint, grid_points, run_sweep
from repro.ir.trace import Trace
from repro.obs.artifact import SchemaError, write
from repro.platforms import PLATFORMS


def _parse_value(text: str):
    """``--set``/``--vary`` value: JSON scalar, falling back to a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected FIELD=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key] = _parse_value(val)
    return out


def _target_spec(trace: Trace, platform: str | None, sets: list[str]):
    spec = PLATFORMS[platform] if platform else trace.recorded_spec()
    overrides = _overrides(sets)
    if overrides:
        name = spec.name + "+" + ",".join(sorted(overrides))
        spec = spec.with_overrides(name=name, **overrides)
    return spec


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.apps.__main__ import main as apps_main

    return apps_main(list(args.app_args) + ["--record-ir", str(args.out)])


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    spec = _target_spec(trace, args.platform, args.set or [])
    result = replay(trace, spec)
    recorded = trace.manifest.get("makespan")
    print(
        f"{trace.manifest.get('app', '?')} x{trace.nranks} "
        f"({trace.manifest.get('backend', '?')}): replayed on {spec.name}"
    )
    print(f"  recorded makespan: {recorded!r}")
    print(f"  replayed makespan: {result.makespan!r}")
    for warning in result.warnings:
        print(f"  warning: {warning}")
    if args.out:
        write(args.out, result.to_dict())
        print(f"  report -> {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    vary = {}
    for pair in args.vary:
        if "=" not in pair:
            raise SystemExit(f"expected FIELD=V1,V2,..., got {pair!r}")
        key, _, vals = pair.partition("=")
        vary[key] = [_parse_value(v) for v in vals.split(",")]
    base = PLATFORMS[args.platform] if args.platform else trace.recorded_spec()
    points = grid_points(vary) if vary else [SweepPoint(name=base.name)]
    outcome = run_sweep(trace, points, base_spec=base, out_dir=args.out)
    print(
        f"swept {len(points)} point(s) over {trace.manifest.get('app', '?')} "
        f"x{trace.nranks} (base {base.name})"
    )
    for row in outcome.summary["points"]:
        print(f"  {row['name'] or base.name}: makespan {row['makespan']!r}")
    if args.out:
        print(f"  artifacts -> {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    failed = 0
    for path in args.traces:
        try:
            trace, problems = check_trace(path)
        except SchemaError as exc:
            print(f"{path}: FAIL ({exc})")
            failed += 1
            continue
        if problems:
            failed += 1
            print(f"{path}: FAIL")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(
                f"{path}: OK ({trace.nops} ops, {trace.nchains} chains, "
                f"makespan {trace.manifest.get('makespan')!r} reproduced)"
            )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ir",
        description="Record, replay, and sweep op-stream traces.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_record = sub.add_parser("record", help="run an app and record its trace")
    p_record.add_argument("--out", required=True, help="trace artifact stem")
    p_record.add_argument(
        "app_args", nargs=argparse.REMAINDER,
        help="arguments for python -m repro.apps (app name first)",
    )
    p_record.set_defaults(func=_cmd_record)

    p_replay = sub.add_parser("replay", help="re-price a trace under a spec")
    p_replay.add_argument("--trace", required=True, help="trace artifact stem")
    p_replay.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    p_replay.add_argument(
        "--set", action="append", metavar="FIELD=VALUE",
        help="override a MachineSpec field (repeatable)",
    )
    p_replay.add_argument("--out", default=None, help="write the replay report JSON")
    p_replay.set_defaults(func=_cmd_replay)

    p_sweep = sub.add_parser("sweep", help="replay a trace over a parameter grid")
    p_sweep.add_argument("--trace", required=True, help="trace artifact stem")
    p_sweep.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    p_sweep.add_argument(
        "--vary", action="append", default=[], metavar="FIELD=V1,V2,...",
        help="sweep a MachineSpec field over values (repeatable; grid product)",
    )
    p_sweep.add_argument("--out", default=None, help="directory for sweep artifacts")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_validate = sub.add_parser(
        "validate", help="check artifacts and reproduce their recorded makespans"
    )
    p_validate.add_argument("traces", nargs="+", help="trace artifact stems")
    p_validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
