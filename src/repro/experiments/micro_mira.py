"""Mira microbenchmarks (the paper's BG/Q source-data figure).

Paper rates at small scale: GASNet READ ~266k/s, WRITE ~210k/s, NOTIFY
~97k/s; MPI READ ~61k/s, WRITE ~51k/s, NOTIFY ~90k/s; all-to-all MPI 24k/s
vs GASNet 3.7k/s at 16 cores (MPI's advantage grows to ~60x at 4096).

Point-to-point rates should be roughly flat in P; all-to-all rates fall
with P.
"""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_microbench, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import MIRA

EXP_ID = "micro_mira"

PAPER = {
    "GASNet READ": 266e3,
    "GASNet WRITE": 210e3,
    "GASNet NOTIFY": 97e3,
    "MPI READ": 61e3,
    "MPI WRITE": 51e3,
    "MPI NOTIFY": 90e3,
    "MPI ALLTOALL@16": 24.1e3,
    "GASNet ALLTOALL@16": 3.7e3,
}


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    procs = [4, 16] if scale == "quick" else [4, 8, 16, 32, 64]
    iterations = 300 if scale == "quick" else 500
    # An all-to-all iteration costs ~P point-to-point ones: run a tenth.
    iters = {"read": iterations, "write": iterations, "notify": iterations,
             "alltoall": max(iterations // 10, 10)}
    return sweep(
        EXP_ID,
        f"Microbenchmark op rates on {MIRA.name} (ops/second)",
        procs,
        [
            Series(f"{label} {op.upper()}", MIRA, be, run_microbench, "ops_per_second",
                   dict(op=op, iterations=n))
            for label, be in reversed(RUNTIMES)
            for op, n in iters.items()
        ],
        notes="paper rates (ops/s, small scale): "
        + ", ".join(f"{k}={v:.3g}" for k, v in PAPER.items()),
    )
