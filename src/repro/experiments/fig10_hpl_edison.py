"""Figure 10: HPL on Edison — same compute-bound tie as Fusion."""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_hpl, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import EDISON

EXP_ID = "fig10"

# Slowed model flop rate, as in Fig. 9.
SPEC = EDISON.with_overrides(flops_per_sec=EDISON.flops_per_sec / 40.0)
HPL = {"n": lambda p: 64 * p, "block": 16}


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    procs = [2, 4, 8] if scale == "quick" else [2, 4, 8, 16]
    return sweep(
        EXP_ID,
        f"HPL TFlop/s on {EDISON.name} (higher is better)",
        procs,
        [Series(label, SPEC, be, run_hpl, "tflops", HPL) for label, be in RUNTIMES],
        ideal=True,
        notes="Expected shape: overlapping curves for both runtimes.",
    )
