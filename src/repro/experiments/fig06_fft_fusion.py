"""Figure 6: FFT on Fusion — CAF-MPI consistently outperforms CAF-GASNet
(tuned MPI_ALLTOALL vs the hand-rolled GASNet all-to-all)."""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_fft, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import FUSION

EXP_ID = "fig06"


def m_for(p: int) -> int:
    # Weak-ish scaling: keep per-pair chunks in the bandwidth regime.
    return 1 << 18 if p <= 8 else 1 << 20


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    spec = FUSION.with_overrides(gasnet_srq_threshold=32)
    procs = [4, 8, 16] if scale == "quick" else [4, 8, 16, 32, 64]
    return sweep(
        EXP_ID,
        f"FFT GFlop/s on {spec.name} (higher is better)",
        procs,
        [Series(label, spec, be, run_fft, "gflops", {"m": m_for}) for label, be in RUNTIMES],
        ideal=True,
        notes=(
            "Expected shape: CAF-MPI ahead at every scale, the gap widening "
            "once GASNet's SRQ activates (threshold rescaled to 32 procs)."
        ),
    )
