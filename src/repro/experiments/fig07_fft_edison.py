"""Figure 7: FFT on Edison — same story as Fusion, no SRQ involved."""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_fft, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import EDISON

EXP_ID = "fig07"


def m_for(p: int) -> int:
    return 1 << 18 if p <= 8 else 1 << 20


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    procs = [4, 8, 16] if scale == "quick" else [4, 8, 16, 32, 64]
    return sweep(
        EXP_ID,
        f"FFT GFlop/s on {EDISON.name} (higher is better)",
        procs,
        [Series(label, EDISON, be, run_fft, "gflops", {"m": m_for}) for label, be in RUNTIMES],
        ideal=True,
        notes="Expected shape: CAF-MPI ahead of CAF-GASNet throughout.",
    )
