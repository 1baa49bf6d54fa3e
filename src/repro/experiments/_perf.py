"""The two builders behind the paper's performance figures (Figs. 3-12 and
the Mira/Edison microbenchmarks).

A figure module declares what to run — process counts per scale, its
:class:`Series`, notes and the paper's constants — and hands it to
:func:`sweep` (one figure of merit per series x P) or :func:`breakdown`
(profiler categories per runtime at one P). Both run cells in declaration
order, series-major then P, so ``--metrics`` numbers ``run-NNNN`` stems the
same way on every regeneration.

The applications the figures run are re-exported here, so a declaration
imports everything it names from this one module.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.hpl import run_hpl
from repro.apps.microbench import run_microbench
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf
from repro.experiments.common import ExperimentResult, ideal_scale
from repro.sim.network import MachineSpec

__all__ = [
    "RUNTIMES", "Series", "breakdown", "sweep",
    "run_cgpop", "run_fft", "run_hpl", "run_microbench", "run_randomaccess",
]

#: The two runtimes every figure compares: (legend label, ``run_caf`` backend).
RUNTIMES = (("CAF-MPI", "mpi"), ("CAF-GASNet", "gasnet"))


@dataclass(frozen=True)
class Series:
    """One plotted line: ``app`` under ``backend`` on ``spec`` at each P,
    read as attribute ``metric`` of rank 0's result (``gups``, ``gflops``,
    ``tflops``, ``elapsed``, ``ops_per_second``).

    ``kwargs`` are the app's keyword arguments; a callable value is called
    with P (problem sizes that grow with the sweep).
    """

    label: str
    spec: MachineSpec
    backend: str
    app: Callable[..., Any]
    metric: str
    kwargs: Mapping[str, Any]

    def measure(self, nprocs: int) -> float:
        kwargs = {k: v(nprocs) if callable(v) else v for k, v in self.kwargs.items()}
        run = run_caf(self.app, nprocs, self.spec, backend=self.backend, **kwargs)
        return getattr(run.results[0], self.metric)


def sweep(
    exp_id: str,
    title: str,
    procs: Sequence[int],
    series: Sequence[Series],
    *,
    ideal: bool = False,
    notes: str = "",
) -> ExperimentResult:
    """Each series at every P in ``procs``; with ``ideal``, an IDEAL-SCALE
    column scaled linearly from the first series' first point."""
    columns = {s.label: [s.measure(p) for p in procs] for s in series}
    if ideal:
        columns["IDEAL-SCALE"] = ideal_scale(procs, columns[series[0].label][0])
    rows = [[p, *[col[i] for col in columns.values()]] for i, p in enumerate(procs)]
    findings: dict[str, Any] = dict(columns)
    findings["procs"] = list(procs)
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=["procs", *columns],
        rows=rows,
        notes=notes,
        findings=findings,
    )


def breakdown(
    exp_id: str,
    title: str,
    spec: MachineSpec,
    nprocs: int,
    app: Callable[..., Any],
    kwargs: Mapping[str, Any],
    categories: Sequence[str],
    *,
    paper: Mapping[str, Mapping[str, float]],
    paper_procs: int,
    notes: str,
) -> ExperimentResult:
    """Mean profiler seconds per image in each of ``categories`` for
    CAF-GASNet then CAF-MPI at ``nprocs``, followed by the paper's rows
    (``paper[label][category]``, measured at ``paper_procs`` cores)."""
    rows: list[list[Any]] = []
    findings: dict[str, dict[str, float]] = {}
    for label, backend in reversed(RUNTIMES):
        spent = run_caf(app, nprocs, spec, backend=backend, **kwargs).profiler.breakdown()
        findings[label] = {c: spent.get(c, 0.0) for c in categories}
        rows.append([label, *findings[label].values()])
    for label, values in paper.items():
        rows.append([f"paper {label} ({paper_procs}c)", *[values[c] for c in categories]])
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=["variant", *categories],
        rows=rows,
        notes=notes,
        findings=findings,
    )
