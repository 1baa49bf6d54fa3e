"""The four workloads. Each factory does the workload's set-up (imports,
one discarded 4-rank warm-up run of every app it uses) and returns
``(run, check)``: ``run()`` is the timed region, ``check()`` verifies what
it produced and returns one bool per check. Sizes live in ``spec.json``.

Import this module only after ``bench.trace`` is installed (traced
children), so the ``from ... import`` names below bind the wrapped
functions.
"""

from __future__ import annotations

import glob
import importlib
import os
import tempfile
from pathlib import Path

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import make_input, run_fft
from repro.apps.hpl import run_hpl
from repro.apps.randomaccess import run_randomaccess
from repro.apps.verification import verify_fft, verify_hpl, verify_randomaccess
from repro.caf import run_caf
from repro.sim.network import MachineSpec

from bench.spec import RESULTS

GENERIC = MachineSpec("generic")
#: HPL's compute-bound regime at simulation scale, as the figures set it.
HPL_SPEC = GENERIC.with_overrides(flops_per_sec=GENERIC.flops_per_sec / 40.0)

_WARM = {
    run_randomaccess: dict(table_bits_per_image=4, updates_per_image=16, batches=2),
    run_fft: dict(m=256),
    run_hpl: dict(n=32, block=8),
    run_cgpop: dict(ny=16, nx=8, max_iter=4),
}


def _warm(*apps, backends=("mpi", "gasnet")) -> None:
    for app in apps:
        for backend in backends:
            run_caf(app, 4, GENERIC, backend=backend, **_WARM[app])


def ra_scale(p: dict, seed: int):
    kw = dict(
        table_bits_per_image=p["table_bits_per_image"],
        updates_per_image=p["updates_per_image"],
        batches=p["batches"],
        seed=seed,
    )
    _warm(run_randomaccess, backends=("mpi",))
    out = []

    def run():
        out.append(run_caf(run_randomaccess, p["nranks"], GENERIC, backend="mpi", **kw))

    def check():
        report = verify_randomaccess(
            out[0].cluster._shared["ra-tables"],
            seed=seed,
            nranks=p["nranks"],
            table_bits_per_image=p["table_bits_per_image"],
            updates_per_image=p["updates_per_image"],
        )
        return [report.passed]

    return run, check


def figs_quick(p: dict, seed: int):
    # The experiments fix their own seeds; ``seed`` is unused on purpose.
    from repro.experiments import EXPERIMENTS

    _warm(run_randomaccess, run_fft, run_hpl, run_cgpop)
    runs = {fid: EXPERIMENTS[fid].load() for fid in p["figures"]}
    results = {}

    def run():
        for fid, fn in runs.items():
            results[fid] = fn("quick")

    def check():
        # The paper-claim assertions stay single-sourced in benchmarks/:
        # hand each test the result already computed instead of a timer.
        outcomes = []
        for fid in runs:
            (path,) = glob.glob(f"benchmarks/test_bench_{fid}_*.py")
            test = getattr(
                importlib.import_module(f"benchmarks.{Path(path).stem}"),
                f"test_bench_{fid}",
            )
            try:
                test(lambda run_fn, scale="quick", fid=fid: results[fid])
                outcomes.append(True)
            except AssertionError:
                outcomes.append(False)
        return outcomes

    return run, check


def bulk(p: dict, seed: int):
    m, n, block = 1 << p["fft_log2_m"], p["hpl_n"], p["hpl_block"]
    _warm(run_fft, run_hpl)
    signal = make_input(seed, m)
    out = []

    def run():
        for _ in range(p["rounds"]):
            for backend in ("mpi", "gasnet"):
                out.append(run_caf(run_fft, p["nranks"], GENERIC, backend=backend, m=m, seed=seed))
                out.append(
                    run_caf(run_hpl, p["nranks"], HPL_SPEC, backend=backend, n=n, block=block, seed=seed)
                )

    def check():
        outcomes = []
        for r in out:
            shared = r.cluster._shared
            if "fft-output" in shared:
                outcomes.append(verify_fft(shared["fft-output"], signal).passed)
            else:
                outcomes.append(
                    verify_hpl(shared["hpl-factors"], n=n, block=block, seed=seed).passed
                )
        return outcomes

    return run, check


def toolchain(p: dict, seed: int):
    from repro.ir import record as ir_record
    from repro.ir import run_sweep
    from repro.ir.replay import CompiledTrace
    from repro.ir.sweep import SweepPoint
    from repro.lint.engine import lint_paths

    # Every variant below is compared with the plain run by order digest.
    os.environ["REPRO_SIM_DIGEST"] = "1"
    nranks = p["nranks"]
    kw = dict(
        table_bits_per_image=p["table_bits_per_image"],
        updates_per_image=p["updates_per_image"],
        batches=p["batches"],
        seed=seed,
    )
    # benchmarks/test_bench_ir_sweep.py's 4x4 latency x bandwidth grid;
    # point 0 is the recorded spec itself.
    grid = [
        SweepPoint(
            name=f"lat x{lf}, bw /{bf}",
            overrides={"latency": GENERIC.latency * lf, "bandwidth": GENERIC.bandwidth / bf},
        )
        for lf in (1, 2, 4, 8)
        for bf in (1, 2, 4, 8)
    ]
    _warm(run_randomaccess)
    out: dict = {}

    def ra(backend, **armed):
        return run_caf(run_randomaccess, nranks, GENERIC, backend=backend, **armed, **kw)

    def run():
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            for backend in ("mpi", "gasnet"):
                plain = ra(backend)
                metered = ra(backend, metrics=True)
                metered.report()
                sanitized = ra(backend, sanitize=True)
                with ir_record.recording(Path(tmp) / f"{backend}.npz"):
                    recorded = ra(backend)
                sweep = run_sweep(CompiledTrace(ir_record.last_trace()), grid)
                out[backend] = (plain, metered, sanitized, recorded, sweep)
        out["lint"] = lint_paths(p["lint_paths"])

    def check():
        outcomes = []
        for backend in ("mpi", "gasnet"):
            plain, metered, sanitized, recorded, sweep = out[backend]
            want = (plain.cluster.engine.order_digest(), plain.elapsed)
            for armed in (metered, sanitized, recorded):
                outcomes.append((armed.cluster.engine.order_digest(), armed.elapsed) == want)
            outcomes.append(sweep.results[0][1].makespan == plain.elapsed)
            outcomes.append(sanitized.sanitizer.report.clean)
        outcomes.append(out["lint"].clean)
        return outcomes

    return run, check


WORKLOADS = {
    "ra_scale": ra_scale,
    "figs_quick": figs_quick,
    "bulk": bulk,
    "toolchain": toolchain,
}
