"""CLI: run the benchmark applications standalone.

Usage::

    python -m repro.apps randomaccess --procs 8 --backend gasnet
    python -m repro.apps fft --procs 16 --platform edison --m 1048576
    python -m repro.apps hpl --procs 4 --n 128
    python -m repro.apps cgpop --procs 8 --mode pull
    python -m repro.apps cgpop --procs 4 --px 2 --ny 16 --nx 16
    python -m repro.apps micro --procs 4 --op write

Every run prints the figure of merit, the per-category time breakdown,
and the verification verdict where the benchmark defines one.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import make_input, run_fft
from repro.apps.hpl import run_hpl
from repro.apps.microbench import OPS, run_microbench
from repro.apps.randomaccess import run_randomaccess
from repro.apps.verification import (
    verify_cgpop,
    verify_fft,
    verify_hpl,
    verify_randomaccess,
)
from repro.caf.program import run_caf
from repro.obs.capture import capture
from repro.platforms import PLATFORMS
from repro.util.tables import format_table

APPS = ("randomaccess", "fft", "hpl", "cgpop", "micro")


def _print_breakdown(run) -> None:
    breakdown = run.profiler.breakdown()
    if breakdown:
        rows = sorted(breakdown.items(), key=lambda kv: -kv[1])
        print(
            format_table(
                ["category", "mean s/image"], rows, title="time decomposition"
            )
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.apps")
    parser.add_argument("app", choices=APPS)
    parser.add_argument("--procs", type=int, default=8)
    parser.add_argument("--backend", choices=["mpi", "gasnet"], default="mpi")
    parser.add_argument("--platform", choices=sorted(PLATFORMS), default="laptop")
    parser.add_argument("--m", type=int, default=1 << 14, help="FFT size")
    parser.add_argument("--n", type=int, default=96, help="HPL matrix order")
    parser.add_argument("--ny", type=int, default=32)
    parser.add_argument("--nx", type=int, default=16)
    parser.add_argument("--mode", choices=["push", "pull"], default="push")
    parser.add_argument(
        "--px", type=int, default=1,
        help="CGPOP image-grid columns (1 = row strips)",
    )
    parser.add_argument("--op", choices=list(OPS), default="write")
    parser.add_argument("--updates", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a trace and write it as Chrome/Perfetto JSON to PATH",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable op-level metrics and write the RunReport JSON to PATH",
    )
    parser.add_argument(
        "--live", metavar="PATH", default=None,
        help="stream live-telemetry JSONL snapshots to PATH during the run "
        "(render with `python -m repro.obs top PATH`)",
    )
    parser.add_argument(
        "--live-interval", type=float, default=None, metavar="S",
        help="wall seconds between telemetry snapshots (default 0.5)",
    )
    parser.add_argument(
        "--record-ir", metavar="PATH", default=None,
        help="record the run's op-stream trace to PATH (stem for .npz + .json)",
    )
    args = parser.parse_args(argv)

    spec = PLATFORMS[args.platform]
    with capture(record_ir=args.record_ir) as session:
        return _run_app(args, spec, session)


def _run_app(args: argparse.Namespace, spec, session) -> int:
    common = dict(
        backend=args.backend,
        trace=args.trace is not None,
        metrics=args.metrics is not None,
        live=args.live,
        live_interval=args.live_interval,
    )
    print(
        f"== {args.app} on {spec.name} x{args.procs} images "
        f"(CAF-{args.backend.upper()}) =="
    )

    if args.app == "randomaccess":
        run = run_caf(
            run_randomaccess, args.procs, spec, **common,
            updates_per_image=args.updates, seed=args.seed,
        )
        res = run.results[0]
        print(f"GUPS: {res.gups:.6f}  (virtual time {res.elapsed * 1e3:.3f} ms)")
        report = verify_randomaccess(
            run.cluster._shared["ra-tables"],
            seed=args.seed,
            nranks=args.procs,
            table_bits_per_image=res.table_bits_per_image,
            updates_per_image=res.updates_per_image,
        )
        print(report)
    elif args.app == "fft":
        run = run_caf(run_fft, args.procs, spec, **common, m=args.m, seed=args.seed)
        res = run.results[0]
        print(f"GFlop/s: {res.gflops:.3f}  (m = {res.m})")
        print(verify_fft(run.cluster._shared["fft-output"], make_input(args.seed, args.m)))
    elif args.app == "hpl":
        run = run_caf(run_hpl, args.procs, spec, **common, n=args.n, seed=args.seed)
        res = run.results[0]
        print(f"TFlop/s: {res.tflops:.6f}  (N = {res.n})")
        print(
            verify_hpl(
                run.cluster._shared["hpl-factors"], n=args.n, block=res.block, seed=args.seed
            )
        )
    elif args.app == "cgpop":
        run = run_caf(
            run_cgpop, args.procs, spec, **common,
            ny=args.ny, nx=args.nx, px=args.px, mode=args.mode, seed=args.seed,
        )
        res = run.results[0]
        print(
            f"iterations: {res.iterations}, residual {res.residual:.2e}, "
            f"converged={res.converged}, time {res.elapsed * 1e3:.3f} ms"
        )
        print(
            verify_cgpop(
                run.cluster._shared["cgpop-solution"], ny=args.ny, nx=args.nx, seed=args.seed
            )
        )
    else:  # micro
        run = run_caf(run_microbench, args.procs, spec, **common, op=args.op)
        res = run.results[0]
        print(f"{args.op}: {res.ops_per_second:,.0f} ops/s")
    _print_breakdown(run)
    if args.trace is not None:
        n = run.tracer.to_chrome_trace(args.trace)
        print(f"trace: {n} events -> {args.trace}")
    if args.metrics is not None:
        report = run.report(label=f"{args.app}-x{args.procs}", app=args.app)
        report.to_json(args.metrics)
        print(f"metrics: run report -> {args.metrics}")
    if args.live is not None:
        tel = run.cluster.telemetry
        n = tel.snapshots_written if tel is not None else 0
        print(f"telemetry: {n} snapshot(s) -> {args.live}")
    if args.record_ir is not None:
        trace = session.last_trace
        nops = trace.nops if trace is not None else 0
        for path in session.recorded:
            print(f"ir: {nops} ops -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
