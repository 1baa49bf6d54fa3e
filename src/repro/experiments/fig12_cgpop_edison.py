"""Figure 12: CGPOP on Edison — same near-identical four variants."""

from __future__ import annotations

from repro.experiments._perf import RUNTIMES, Series, run_cgpop, sweep
from repro.experiments.common import ExperimentResult, check_scale
from repro.platforms import EDISON

EXP_ID = "fig12"


def run(scale: str = "default") -> ExperimentResult:
    check_scale(scale)
    procs = [2, 4, 8] if scale == "quick" else [2, 4, 8, 12, 24]
    max_iter = 60 if scale == "quick" else 120
    return sweep(
        EXP_ID,
        f"CGPOP execution time (s) on {EDISON.name} (lower is better)",
        procs,
        [
            # tol=0: a fixed-iteration run, equal work at every P.
            Series(f"{label} ({mode.upper()})", EDISON, be, run_cgpop, "elapsed",
                   dict(ny=96, nx=48, mode=mode, max_iter=max_iter, tol=0.0))
            for label, be in RUNTIMES
            for mode in ("push", "pull")
        ],
        notes="All four variants should be near-indistinguishable (paper §4.4).",
    )
