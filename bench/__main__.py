"""``python -m bench run|compare`` (see ``bench/README.md``)."""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="time the workloads; write bench/results/latest.json")
    run.add_argument("--workload", help="one workload (default: all); also prints the driver's JSON line")
    run.add_argument("--seed", type=int, help="input seed (default: spec.json's default_seed)")
    run.add_argument("--seconds", type=float, help="budget per workload (default: BENCHMARK.json's run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: also run one traced child and the layer probes")
    run.add_argument("--smoke", action="store_true",
                     help="P<=16 sizes, one repetition: checks the harness, measures nothing")
    compare = sub.add_parser("compare", help="judge result file B against base A")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        from bench.run import main as command
    else:
        from bench.compare import main as command
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
