"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments                 # all, default scale
    python -m repro.experiments fig03 fig08     # a subset
    python -m repro.experiments --scale quick   # fast pass
    python -m repro.experiments --list
    python -m repro.experiments --out results/  # also write text files
    python -m repro.experiments fig04 --metrics obs/  # per-run RunReports
    python -m repro.experiments fig04 --metrics obs/ --trace  # + traces
    python -m repro.experiments fig04 --metrics obs/ --live   # + telemetry
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.obs.capture import capture


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures on the simulator.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--scale", choices=["quick", "default"], default="default")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--out", type=pathlib.Path, help="directory for text outputs")
    parser.add_argument(
        "--metrics", type=pathlib.Path, metavar="DIR", default=None,
        help="capture a RunReport JSON per simulated run into DIR",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="with --metrics: also capture a Chrome/Perfetto trace per run",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="with --metrics: also stream a run-NNNN.telemetry.jsonl per run",
    )
    parser.add_argument(
        "--live-interval", type=float, default=None, metavar="S",
        help="wall seconds between telemetry snapshots (default 0.5)",
    )
    parser.add_argument(
        "--record-ir", type=pathlib.Path, metavar="DIR", default=None,
        help="record an op-stream trace per simulated run into DIR "
        "(fault-injected runs are skipped)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, spec in EXPERIMENTS.items():
            print(f"{exp_id:14s} {spec.summary}")
        return 0
    if args.trace and args.metrics is None:
        parser.error("--trace requires --metrics DIR")
    if args.live and args.metrics is None:
        parser.error("--live requires --metrics DIR")

    ids = args.ids or list(EXPERIMENTS)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    # One process-wide capture: every cluster the experiments build writes
    # its run-NNNN artifacts without the experiment code knowing about it.
    with capture(
        args.metrics,
        trace=args.trace,
        live=args.live,
        live_interval=args.live_interval,
        record_ir=args.record_ir,
    ) as session:
        try:
            for exp_id in ids:
                spec = get_experiment(exp_id)
                t0 = time.time()
                result = spec.load()(args.scale)
                text = result.render()
                print(text)
                print(f"({exp_id} regenerated in {time.time() - t0:.1f}s wall)\n")
                if args.out:
                    (args.out / f"{exp_id}.txt").write_text(text + "\n")
        finally:
            if args.metrics is not None:
                print(f"captured {len(session.written)} artifact(s) in {args.metrics}")
            if args.record_ir is not None:
                print(session.recorded_summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
