"""Recovery drivers: restart-from-checkpoint and shrink-and-recover.

Two recovery disciplines over the same checkpoint artifact, chosen by
``run_caf``'s in-run budget ``max_recoveries``:

* **restart** (budget 0, the default) — the classic coordinated
  checkpoint/restart loop, :func:`run_resilient`. The run executes until a
  failure surfaces (an eager ULFM-style error, a watchdog timeout on a
  fault-induced hang, a deadlock); the driver strips the crashes that
  already fired from the fault plan, rewinds to the last committed
  checkpoint, and reruns the *full* image count from there. The program
  re-executes its allocation preamble — the resilience service
  transparently refills each allocation from the checkpoint — and skips
  completed iterations via ``img.resilience.resume_step()``.

* **shrink** (``run_caf(..., max_recoveries=N)``, no driver) — ULFM-style
  in-run recovery. The program itself catches the failure, survivors
  rebuild a smaller team (:meth:`~repro.caf.image.Image.shrink_team`: the
  first survivor to shrink builds it for all, so none waits), repartition
  the dead image's data out of the last checkpoint, and keep computing, up
  to N times.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.caf.program import CafRun, run_caf
from repro.resilience.checkpoint import CheckpointStore
from repro.util.errors import ReproError, ResilienceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.faults import FaultPlan


@dataclass
class ResilientOutcome:
    """What a resilient execution produced, plus its recovery history."""

    run: CafRun
    store: CheckpointStore
    restarts: int
    attempts: list[dict[str, Any]]  # one record per failed attempt

    @property
    def results(self) -> list[Any]:
        return self.run.results

    @property
    def cluster(self):
        return self.run.cluster


def _strip_fired_crashes(plan: "FaultPlan", cluster) -> "FaultPlan":
    """A fresh plan without the crashes the failed attempt already consumed.

    A crash is *fired* when its victim is in the cluster's failed set and
    its scheduled time is within the attempt's lifetime; keeping it would
    just re-kill the same image at the same virtual time on every rerun.
    The copy is rewound (``reset``) so per-message fault draws replay from
    the seed.
    """
    fired = {
        (entry["rank"], entry["time"])
        for entry in cluster.failure_log
        if entry["reason"] == "crash"
    }
    remaining = [(r, t) for (r, t) in plan.crashes if (r, t) not in fired]
    fresh = copy.copy(plan)
    fresh.crashes = remaining
    fresh.reset()
    return fresh


def run_resilient(
    program,
    nranks: int,
    spec=None,
    *,
    store: CheckpointStore | None = None,
    faults: "FaultPlan | None" = None,
    max_restarts: int = 8,
    **kwargs: Any,
) -> ResilientOutcome:
    """Run ``program`` to completion despite injected failures, rerunning
    the full image count from the last checkpoint after each failure.

    Every other keyword goes to :func:`~repro.caf.program.run_caf`
    (``backend``, ``checkpoint_every``, ``deadline``, ``max_recoveries``,
    the program's own keywords, ...). The returned outcome carries the
    final successful :class:`~repro.caf.program.CafRun`, the checkpoint
    store, and one record per failed attempt.
    """
    store = store if store is not None else CheckpointStore()
    attempts: list[dict[str, Any]] = []
    plan = faults
    restarts = 0
    while True:
        try:
            run = run_caf(
                program, nranks, spec, faults=plan, checkpoint_store=store,
                resume_from=store.latest(), **kwargs,
            )
            return ResilientOutcome(
                run=run, store=store, restarts=restarts, attempts=attempts
            )
        except ReproError as exc:
            cluster = getattr(exc, "caf_cluster", None)
            if cluster is None or not cluster.failed_ranks:
                raise  # not a failure the restart discipline can absorb
            attempts.append(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "failed_images": sorted(cluster.failed_ranks),
                    "elapsed": cluster.elapsed,
                    "checkpoint_step": (
                        store.latest().step if store.latest() else None
                    ),
                }
            )
            restarts += 1
            if restarts > max_restarts:
                raise ResilienceError(
                    f"restart budget exhausted after {max_restarts} restarts "
                    f"(last failure: {type(exc).__name__}: {exc})"
                ) from exc
            if plan is not None:
                plan = _strip_fired_crashes(plan, cluster)
