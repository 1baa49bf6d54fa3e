"""Figure 4: time decomposition of RandomAccess (Fusion).

Paper (2048 cores): CAF-MPI spends ~219 s in event_notify (the linear
MPI_WIN_FLUSH_ALL) and 256 s in event_wait; CAF-GASNet spends almost
nothing in notify (3.6 s) but 406 s in event_wait. Computation and
coarray_write are smaller and comparable.
"""

from __future__ import annotations

from repro.experiments._perf import breakdown, run_randomaccess
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import FUSION

EXP_ID = "fig04"
TITLE = "RandomAccess time decomposition on fusion (mean seconds/image)"

CATEGORIES = ("computation", "coarray_write", "event_wait", "event_notify")

PAPER_2048 = {  # seconds, paper Figure 4
    "CAF-GASNet": {"computation": 46.36, "coarray_write": 53.28, "event_wait": 405.75, "event_notify": 3.60},
    "CAF-MPI": {"computation": 81.97, "coarray_write": 160.09, "event_wait": 255.74, "event_notify": 219.08},
}


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    return breakdown(
        EXP_ID,
        TITLE,
        FUSION.with_overrides(gasnet_srq_threshold=None),
        16 if scale == "quick" else 32,
        run_randomaccess,
        dict(table_bits_per_image=9, updates_per_image=2048, batches=16),
        CATEGORIES,
        paper=PAPER_2048,
        paper_procs=2048,
        notes=(
            "Expected shape: CAF-MPI's event_notify share is large (linear "
            "FLUSH_ALL); CAF-GASNet's notify is negligible with the waiting "
            "shifted into event_wait."
        ),
    )
