"""Figure 9: HPL on Fusion — compute-bound, runtimes indistinguishable."""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_hpl, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import FUSION

EXP_ID = "fig09"

# The paper's N is O(100k); at simulation scale a slowed model flop rate
# recreates the compute-bound regime.
SPEC = FUSION.with_overrides(flops_per_sec=FUSION.flops_per_sec / 40.0)
HPL = {"n": lambda p: 64 * p, "block": 16}  # weak scaling in columns


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    procs = [2, 4, 8] if scale == "quick" else [2, 4, 8, 16]
    return sweep(
        EXP_ID,
        f"HPL TFlop/s on {FUSION.name} (higher is better)",
        procs,
        [Series(label, SPEC, be, run_hpl, "tflops", HPL) for label, be in RUNTIMES],
        ideal=True,
        notes=(
            "Expected shape: the CAF-MPI and CAF-GASNet curves overlap (HPL is "
            "dominated by DGEMM flops, not the communication substrate)."
        ),
    )
