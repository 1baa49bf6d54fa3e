"""Resilience-aware application ports: RandomAccess and CGPOP.

Each is the paper's own per-image object under one recovery loop,
:func:`_shrink_loop`. RandomAccess is the
hypercube router, :class:`~repro.apps.randomaccess.RaRouter`, over
**logical partitions** (over-decomposition): the table is P partitions, P
the *initial* image count, and an owner map (partition to world rank) is
the only thing recovery has to update. CGPOP is the solver,
:class:`~repro.apps.cgpop.CgSolver`, on row strips of the current team.
The run's budget, ``run_caf(..., max_recoveries=N)``, is the discipline:
with 0 a failure ends the run and
:func:`~repro.resilience.recovery.run_resilient` reruns it from the last
checkpoint; with N > 0 survivors rebuild fresh communication state on the
shrunken team (RA adopts the dead image's partitions, CGPOP re-cuts
near-equal strips), reload their data from the last checkpoint, and keep
going, up to N times. The first survivor to shrink decides the team (and
CGPOP's communicator) for every survivor, so none waits for another.

A crash reaches every survivor by one rule of the runtimes: an unsatisfied
wait raises once it depends on a failed image — its target, or any member
of the team or communicator it waits over — and what already arrived still
counts. So a survivor parked in an event wait, a team barrier or
agreement, a flush, a handle sync or an async collective's ``cofence``
wakes with :class:`~repro.util.errors.ImageFailedError`,
:class:`~repro.util.errors.MpiProcFailedError` /
:class:`~repro.util.errors.MpiRevokedError` or
:class:`~repro.util.errors.GasnetProcFailedError` at the crash's virtual
time: the model is a perfect, immediate failure detector, and no wait
carries a timer. A crash before the program's first statement (inside the
backend's start-up collectives) ends the run: no recovery loop exists yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.apps.cgpop import CgSolver, assemble_solution, block_bounds
from repro.apps.randomaccess import RaRouter
from repro.util.errors import (
    GasnetProcFailedError,
    ImageFailedError,
    MpiProcFailedError,
    MpiRevokedError,
    ResilienceError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.image import Image
    from repro.caf.teams import Team

#: Everything a crash can surface as on a survivor: CAF-level image
#: failure, plus the conduit-level process-failure errors leaking through
#: the CAF-over-MPI / CAF-over-GASNet backends or the app's own MPI
#: collectives. A survivor recovers only once a member of its team has
#: failed.
_ALL_FAILURES = (
    ImageFailedError,
    MpiProcFailedError,
    MpiRevokedError,
    GasnetProcFailedError,
)


def _shrink_loop(img: "Image", attempt, comm=None) -> "tuple[Team | None, int]":
    """The shrink-recovery loop both resilient apps run.

    ``attempt(team, comm, saved, ckpt)`` is a generator. Its first step
    builds the app's object on ``team`` from this image's app state
    ``saved``: the restart state on the first pass; after a shrink, this
    image's share of ``ckpt``, the checkpoint it reloads data from, or
    ``{}`` with no checkpoint (a cold restart on the survivors). It then
    runs one iteration per step and yields the app state to checkpoint
    after it. A failure is recovered only with a nonzero budget
    (``run_caf(..., max_recoveries=N)``), only once a member of ``team``
    has failed (an error with none dead is a real bug, not a crash), and
    only within the budget: survivors revoke and shrink ``comm``, shrink
    the team, and go back to the build. Nothing between the two shrinks yields, so the
    first survivor to shrink decides the communicator and the team from one
    failed set. Returns the final team and the recovery count; the team is
    None if the run declared this image failed while it was alive, which
    then leaves the loop.
    """
    r = img.resilience
    team, ckpt, recoveries = img.team_world, None, 0
    # A restarted run's coarrays and drained credits refill from the
    # checkpoint as they are allocated; ``saved`` is its app state.
    saved = r.resume_state(default={}) if r is not None else {}
    while True:
        try:
            for state in attempt(team, comm, saved, ckpt):
                if r is not None:
                    r.step(state=state, team=team)
            break
        except _ALL_FAILURES as exc:
            max_recoveries = r.service.max_recoveries if r is not None else 0
            failed = img.cluster.failed_ranks
            if not max_recoveries or failed.isdisjoint(team.members):
                raise
            if img.rank in failed:
                return None, recoveries  # only survivors shrink
            if recoveries >= max_recoveries:
                raise ResilienceError(
                    f"recovery budget exhausted after {max_recoveries} shrinks: "
                    "raise max_recoveries"
                ) from exc
            recoveries += 1
            if comm is not None:
                comm.revoke()  # frees peers parked inside MPI
                comm = comm.shrink()
            team, ckpt = r.recover_shrink(team)
            saved = ckpt.app_state[img.rank] if ckpt is not None else {}
    img.backend.quiet()
    img.barrier(team)
    return team, recoveries


# =========================================================================
# RandomAccess: apps.randomaccess.RaRouter under a recovery loop
# =========================================================================


def _ra_router(
    img: "Image", team: "Team", owners: list[int], armed: bool, **kw
) -> tuple[RaRouter, int]:
    """A router on ``team`` hosting partition ``p`` on world rank
    ``owners[p]``, its tables in a checkpointable ``(P, 2**bits)`` coarray,
    and that coarray's checkpoint index. Allocation order is tables, then
    the router's landing, arrive and drained, so a restarted run's
    allocations refill the same checkpoint slots."""
    tables = img.allocate_coarray(
        (len(owners), 1 << kw["table_bits_per_image"]), np.uint64, team=team
    )
    index_of = {w: i for i, w in enumerate(team.members)}
    router = RaRouter(
        img, team, owners=[index_of[w] for w in owners], tables=tables.local,
        armed=armed, **kw,
    )
    r = img.resilience
    return router, r.coarray_index(tables) if r is not None else 0


def _reassign(owners: list[int], survivors: tuple[int, ...]) -> list[int]:
    """Adopt dead owners' partitions round-robin over the survivors."""
    new = list(owners)
    dead_parts = [d for d, w in enumerate(new) if w not in survivors]
    for i, d in enumerate(dead_parts):
        new[d] = survivors[i % len(survivors)]
    return new


def _reload_tables(router: RaRouter, ckpt, saved: dict) -> None:
    """Fill every partition ``router`` hosts from the tables coarray its
    checkpoint-time owner saved (the dead image's, for adopted ones)."""
    old = saved["owners"]
    for i, p in enumerate(router.parts):
        # p's row on its old host: how many lower partitions that host held.
        segment = ckpt.coarray_partition(old[p], saved["table_index"])
        router.tables[i] = segment.reshape(len(old), -1)[old[:p].count(old[p])]


def run_resilient_randomaccess(
    img: "Image",
    *,
    table_bits_per_image: int = 7,
    updates_per_image: int = 1024,
    batches: int = 8,
    seed: int = 42,
) -> dict:
    """Resilient GUPS: :class:`~repro.apps.randomaccess.RaRouter`, the router
    ``run_randomaccess`` runs, under a recovery loop.

    The table is P logical partitions, P the initial image count, and the
    owner map (partition to world rank) is the only thing recovery
    changes: survivors shrink the team, adopt the dead image's partitions,
    build a new router on the shrunken team and reload every partition
    they host from the checkpoint. Final partitions land in
    ``run_randomaccess``'s record,
    ``img.cluster.shared('ra-tables', dict)[partition]``, which
    :func:`~repro.apps.verification.verify_randomaccess` checks.
    """
    kw = dict(
        table_bits_per_image=table_bits_per_image, updates_per_image=updates_per_image,
        batches=batches, seed=seed,
    )
    owners, router = list(img.team_world.members), None

    def attempt(team, comm, saved, ckpt):
        nonlocal owners, router
        # A cold restart keeps the owners it had, with the dead ones' reassigned.
        owners = _reassign(saved.get("owners", owners), team.members)
        # Allocations are collective, so building synchronizes. Only a
        # restart's first build finds its drained credits posted (armed).
        router, index = _ra_router(img, team, owners, bool(saved) and ckpt is None, **kw)
        if ckpt is not None:
            _reload_tables(router, ckpt, saved)
        for b in range(saved.get("batch", 0), batches):
            router.batch(b)
            yield {"batch": b + 1, "owners": owners, "table_index": index}

    team, recoveries = _shrink_loop(img, attempt)
    if team is None:
        return {"rank": img.rank, "left": True, "recoveries": recoveries}
    out = img.cluster.shared("ra-tables", dict)
    for i, p in enumerate(router.parts):
        out[p] = router.tables[i].copy()
    return {
        "rank": img.rank,
        "parts": router.parts,
        "batches": batches,
        "recoveries": recoveries,
        "team_size": team.size,
    }


# =========================================================================
# CGPOP: apps.cgpop.CgSolver under a recovery loop
# =========================================================================


def _cg_solver(
    img: "Image", team: "Team", comm, ny: int, nx: int, seed: int, *, armed: bool
) -> tuple[CgSolver, int]:
    """A strip solver on ``team`` whose x / r / p live in a checkpointable
    ``(3, ceil(ny/size), nx)`` coarray, and that coarray's checkpoint index.
    Allocation order is state, then the solver's halo, arrive and drained,
    so a restarted run's allocations refill the same checkpoint slots."""
    state = img.allocate_coarray((3, -(-ny // team.size), nx), np.float64, team=team)
    row0, row1 = block_bounds(team.my_index, ny, team.size)
    solver = CgSolver(
        img, team, comm, ny=ny, nx=nx, seed=seed, state=state.local[:, : row1 - row0],
        armed=armed,
    )
    r = img.resilience
    return solver, r.coarray_index(state) if r is not None else 0


def _reload(solver: CgSolver, ckpt, index: int, ny: int, nx: int) -> None:
    """Fill ``solver``'s x / r / p from the strips ``ckpt``'s members saved."""
    parts = len(ckpt.members)
    strips = [ckpt.coarray_partition(w, index).reshape(3, -1, nx) for w in ckpt.members]
    for which, field in enumerate((solver.x, solver.r, solver.p)):
        blocks = {}
        for k, strip in enumerate(strips):
            row0, row1 = block_bounds(k, ny, parts)
            blocks[k] = (row0, 0, strip[which, : row1 - row0])
        field[:] = assemble_solution(blocks, ny, nx)[solver.row0 : solver.row1]


def run_resilient_cgpop(
    img: "Image",
    *,
    ny: int = 32,
    nx: int = 16,
    tol: float = 1e-8,
    max_iter: int = 400,
    seed: int = 11,
) -> dict:
    """Resilient hybrid CG: :class:`~repro.apps.cgpop.CgSolver`, the solver
    ``run_cgpop`` runs, on row strips of the current team.

    The solver survives a mid-run crash either by full restart from the
    last checkpoint or by shrinking: survivors revoke the communicator
    (freeing peers parked in MPI), ``MPIX_COMM_SHRINK`` a clean one, shrink
    the CAF team, build a new solver on them (near-equal strips of the
    survivors) and reload x / r / p from the checkpoint. The converged
    strip lands in ``run_cgpop``'s record,
    ``img.cluster.shared('cgpop-solution', dict)[rank] = (row0, 0, x)``.
    """
    solver, it, converged = None, 0, False

    def attempt(team, comm, saved, ckpt):
        nonlocal solver, it, converged
        solver, index = _cg_solver(
            img, team, comm, ny, nx, seed, armed=bool(saved) and ckpt is None
        )
        if ckpt is not None:
            _reload(solver, ckpt, saved["index"], ny, nx)
        if team is img.team_world:
            img.sync_all()  # the first build synchronizes as run_cgpop's does
        it = saved.get("it", 0)
        if saved:
            solver.rr, solver.bnorm2 = saved["rr"], saved["bnorm2"]
        else:
            solver.start()  # x / r / p from scratch
        while it < max_iter and not converged:
            converged = solver.step(tol)
            it += 1
            if not converged:
                yield {"it": it, "rr": solver.rr, "bnorm2": solver.bnorm2, "index": index}

    team, recoveries = _shrink_loop(img, attempt, img.mpi().COMM_WORLD)
    if team is None:
        return {"rank": img.rank, "left": True, "recoveries": recoveries}
    img.cluster.shared("cgpop-solution", dict)[img.rank] = (solver.row0, 0, solver.x.copy())
    return {
        "rank": img.rank,
        "iterations": it,
        "converged": converged,
        "residual": float(np.sqrt(max(solver.rr, 0.0))),
        "recoveries": recoveries,
        "team_size": team.size,
        "rows": [solver.row0, solver.row1],
    }
