"""Figure 5: RandomAccess on Edison.

Paper shape: CAF-GASNet wins throughout and scales better, because Cray
MPI implements RMA over send/recv internally (no SRQ story on Aries).
"""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_randomaccess, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import EDISON

EXP_ID = "fig05"


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    procs = [4, 8, 16, 32] if scale == "quick" else [4, 8, 16, 32, 64]
    ra = dict(
        table_bits_per_image=9,
        updates_per_image=1024 if scale == "quick" else 2048,
        batches=8,
    )
    return sweep(
        EXP_ID,
        f"RandomAccess GUPS on {EDISON.name} (higher is better)",
        procs,
        [Series(label, EDISON, be, run_randomaccess, "gups", ra) for label, be in RUNTIMES],
        ideal=True,
        notes=(
            "Send/recv-backed Cray RMA puts CAF-MPI behind CAF-GASNet at every "
            "scale (paper Fig. 5)."
        ),
    )
