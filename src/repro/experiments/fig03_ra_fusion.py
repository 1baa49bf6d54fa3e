"""Figure 3: RandomAccess on Fusion.

Paper shape: CAF-GASNet beats CAF-MPI by a small constant factor up to 64
cores; GASNet's SRQ activates at 128 cores and drops its performance;
CAF-GASNet-NOSRQ tracks CAF-MPI again.
"""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_randomaccess, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import FUSION

EXP_ID = "fig03"


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    # The SRQ threshold scales down with the sweep so the drop is visible.
    spec = FUSION.with_overrides(gasnet_srq_threshold=32)
    procs = [4, 8, 16, 32] if scale == "quick" else [4, 8, 16, 32, 64]
    ra = dict(
        table_bits_per_image=9,
        updates_per_image=1024 if scale == "quick" else 2048,
        batches=8,
    )
    nosrq = spec.with_overrides(gasnet_srq_threshold=None)
    return sweep(
        EXP_ID,
        f"RandomAccess GUPS on {spec.name} (higher is better)",
        procs,
        [
            *[Series(label, spec, be, run_randomaccess, "gups", ra) for label, be in RUNTIMES],
            Series("CAF-GASNet-NOSRQ", nosrq, "gasnet", run_randomaccess, "gups", ra),
        ],
        ideal=True,
        notes=(
            "SRQ threshold rescaled to 32 procs (paper: 128 of 2048). Expected "
            "shape: GASNet ahead below the threshold, dropping past it; NOSRQ "
            "restores parity with CAF-MPI."
        ),
    )
