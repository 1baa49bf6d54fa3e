"""Figure 8: FFT time decomposition (Fusion, 256 cores in the paper).

Paper: CAF-GASNet spends 17.9 s in all-to-all vs CAF-MPI's 6.1 s, with
local computation roughly equal (7.9 vs 8.3 s) — the entire FFT gap is
the collective.
"""

from __future__ import annotations

from repro.experiments._perf import breakdown, run_fft
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import FUSION

EXP_ID = "fig08"
TITLE = "FFT time decomposition on fusion (mean seconds/image)"

PAPER_256 = {
    "CAF-GASNet": {"alltoall": 17.92, "computation": 7.94},
    "CAF-MPI": {"alltoall": 6.06, "computation": 8.31},
}


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    nprocs = 16 if scale == "quick" else 32
    return breakdown(
        EXP_ID,
        TITLE,
        FUSION.with_overrides(gasnet_srq_threshold=nprocs),
        nprocs,
        run_fft,
        {"m": 1 << 18 if scale == "quick" else 1 << 20},
        ("alltoall", "computation"),
        paper=PAPER_256,
        paper_procs=256,
        notes=(
            "Expected shape: equal computation; CAF-GASNet's all-to-all "
            "several times costlier than MPI_ALLTOALL."
        ),
    )
