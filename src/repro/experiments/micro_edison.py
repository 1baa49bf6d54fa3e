"""Edison microbenchmarks (the paper's Cray XC30 source-data figure).

Paper rates at small scale: GASNet READ ~385k/s, WRITE ~500k/s, NOTIFY
~655k/s; MPI READ/WRITE ~207k/s (send/recv-backed RMA), NOTIFY ~700k/s;
all-to-all GASNet 24k/s > MPI 12k/s at 32 procs, converging/crossing at
larger scales.
"""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_microbench, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import EDISON

EXP_ID = "micro_edison"

PAPER = {
    "GASNet READ": 385e3,
    "GASNet WRITE": 500e3,
    "GASNet NOTIFY": 655e3,
    "MPI READ": 207e3,
    "MPI WRITE": 210e3,
    "MPI NOTIFY": 700e3,
    "GASNet ALLTOALL@32": 24.2e3,
    "MPI ALLTOALL@32": 12.4e3,
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
        f"Microbenchmark op rates on {EDISON.name} (ops/second)",
        procs,
        [
            Series(f"{label} {op.upper()}", EDISON, be, run_microbench, "ops_per_second",
                   dict(op=op, iterations=n))
            for label, be in reversed(RUNTIMES)
            for op, n in iters.items()
        ],
        notes="paper rates (ops/s, small scale): "
        + ", ".join(f"{k}={v:.3g}" for k, v in PAPER.items()),
    )
