"""Ablation: CGPOP 1-D strip vs 2-D block domain decomposition.

The miniapp exchanges boundaries between neighboring sub-domains; strips
send two full rows per step while blocks send four smaller edges (better
surface-to-volume at scale, at the cost of twice the messages and event
synchronization). Both columns are the same ``run_cgpop`` — one halo
exchanger, one stencil, one CG loop — on a ``1 x P`` and a ``sqrt(P) x
sqrt(P)`` image grid, so the ratio isolates the decomposition. This
quantifies the trade-off on the simulated fabric for both runtimes.
"""

from __future__ import annotations

from repro.apps.cgpop import run_cgpop
from repro.caf.program import run_caf
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import FUSION

EXP_ID = "abl_decomp"
TITLE = "CGPOP halo exchange: 1-D strips vs 2-D blocks (execution time, s)"


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    proc_counts = [4] if scale == "quick" else [4, 16]
    ny = nx = 32 if scale == "quick" else 64
    max_iter = 40 if scale == "quick" else 80
    rows = []
    findings: dict[str, dict[int, float]] = {"1d": {}, "2d": {}}
    for p in proc_counts:
        row = [p]
        for backend in ("mpi", "gasnet"):
            t1, t2 = (
                run_caf(
                    run_cgpop, p, FUSION, backend=backend,
                    ny=ny, nx=nx, px=px, tol=0.0, max_iter=max_iter,
                ).results[0].elapsed
                for px in (1, int(p ** 0.5))
            )
            row.extend([t1, t2, t1 / t2])
            if backend == "mpi":
                findings["1d"][p] = t1
                findings["2d"][p] = t2
        rows.append(row)
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=[
            "procs",
            "mpi 1d", "mpi 2d", "mpi 1d/2d",
            "gasnet 1d", "gasnet 2d", "gasnet 1d/2d",
        ],
        rows=rows,
        notes=(
            "At these simulated scales the strips win or tie: a block cuts "
            "the halo bytes but has up to four neighbors where a strip has "
            "two, and every link costs a message and two event signals. At "
            "P=4 every block is a corner with two links and the two run "
            "level; at P=16 interior blocks have four and the strips lead. "
            "The surface-to-volume payoff needs larger P and grids than the "
            "harness sweeps."
        ),
        findings=findings,
    )
