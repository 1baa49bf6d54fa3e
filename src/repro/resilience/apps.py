"""Resilience-aware application ports: RandomAccess and CGPOP.

Each is the paper's own per-image object under a recovery loop, and both
loops share one admission check for a failure. RandomAccess is the
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
going, up to N times.

Every blocking wait in the steady-state loop carries a timeout,
:data:`WAIT_TIMEOUT`, so a crash anywhere surfaces as
:class:`~repro.util.errors.CafTimeoutError` /
:class:`~repro.util.errors.ImageFailedError` (CAF side) or
:class:`~repro.util.errors.MpiProcFailedError` /
:class:`~repro.util.errors.MpiRevokedError` (MPI side) on every survivor in
bounded virtual time — no barriers stand between a failure and its
detection. (The coordinated checkpoint itself still barriers; a crash
landing inside that narrow window is recovered by the watchdog + restart
path, a known property of blocking coordinated checkpoints.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.apps.cgpop import CgSolver, assemble_solution, block_bounds
from repro.apps.randomaccess import RaRouter
from repro.util.errors import (
    CafTimeoutError,
    GasnetProcFailedError,
    ImageFailedError,
    MpiProcFailedError,
    MpiRevokedError,
    ResilienceError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.image import Image
    from repro.caf.teams import Team

#: Everything a crash can surface as on a survivor: CAF-level image failure
#: or bounded-wait timeout, plus the conduit-level process-failure errors
#: leaking through the CAF-over-MPI / CAF-over-GASNet backends or the
#: app's own MPI collectives. A survivor must confirm a real crash
#: (``img.cluster.failed_ranks``) before treating one as recoverable.
_ALL_FAILURES = (
    ImageFailedError,
    CafTimeoutError,
    MpiProcFailedError,
    MpiRevokedError,
    GasnetProcFailedError,
)

#: Virtual seconds a steady-state wait allows; a satisfied wait cancels its
#: timer, so the bound never moves a fault-free schedule.
WAIT_TIMEOUT = 0.25


def _admit(img: "Image", recoveries: int, exc: Exception) -> int:
    """Admit ``exc`` as one more shrink recovery, or re-raise it: only with
    a nonzero budget (``run_caf(..., max_recoveries=N)``), only once a crash
    is confirmed (a timeout with nobody dead is a real bug, not a crash),
    and only within the budget. Returns the new recovery count."""
    r = img.resilience
    max_recoveries = r.service.max_recoveries if r is not None else 0
    if not max_recoveries or not img.cluster.failed_ranks:
        raise exc
    if recoveries >= max_recoveries:
        raise ResilienceError(
            f"recovery budget exhausted after {max_recoveries} shrinks: "
            "raise max_recoveries"
        ) from exc
    return recoveries + 1


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
        timeout=WAIT_TIMEOUT, armed=armed, **kw,
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
    r = img.resilience
    team = img.team_world
    # A restarted run's tables and drained credits refill from the
    # checkpoint as they are allocated; batch and owners are its app state.
    saved = r.resume_state(default={}) if r is not None else {}
    b = saved.get("batch", 0)
    owners = saved.get("owners", list(team.members))
    armed, ckpt, router = b > 0, None, None

    recoveries = 0
    while router is None or b < batches:
        try:
            if router is None:
                # Allocations are collective, so building synchronizes.
                router, index = _ra_router(img, team, owners, armed, **kw)
                if ckpt is not None:
                    _reload_tables(router, ckpt, saved)
                continue
            router.batch(b)
            b += 1
            if r is not None:
                state = {"batch": b, "owners": owners, "table_index": index}
                r.step(state=state, team=team)
        except _ALL_FAILURES as exc:
            recoveries = _admit(img, recoveries, exc)
            team, ckpt = r.recover_shrink(team, require_checkpoint=False)
            # Without a checkpoint (the crash came before the first one), RA
            # cold-restarts on the shrunken team.
            saved = ckpt.app_state[img.rank] if ckpt is not None else {}
            b = saved.get("batch", 0)
            owners = _reassign(saved.get("owners", owners), team.members)
            armed, router = False, None

    img.backend.quiet()
    img.barrier(team)
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
        img, team, comm, ny=ny, nx=nx, seed=seed, timeout=WAIT_TIMEOUT,
        state=state.local[:, : row1 - row0], armed=armed,
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
    (freeing peers parked in MPI), ``MPIX_COMM_SHRINK`` a clean one,
    shrink the CAF team, build a new solver on it (near-equal strips of
    the survivors) and reload x / r / p from the checkpoint. The converged
    strip lands in ``run_cgpop``'s record,
    ``img.cluster.shared('cgpop-solution', dict)[rank] = (row0, 0, x)``.
    """
    r = img.resilience
    team = img.team_world
    comm = img.mpi().COMM_WORLD
    # A restarted run's state coarray and drained credits refill from the
    # checkpoint as they are allocated; rr and bnorm2 are its app state.
    saved = r.resume_state(default={}) if r is not None else {}
    solver, index = _cg_solver(img, team, comm, ny, nx, seed, armed=bool(saved))
    cold, it = not saved, 0  # cold: x / r / p still to initialize
    if saved:
        it, solver.rr, solver.bnorm2 = saved["it"], saved["rr"], saved["bnorm2"]
    img.sync_all()

    recoveries = 0
    converged = False
    while cold or (it < max_iter and not converged):
        try:
            if cold:
                solver.start()
                cold = False
                continue
            converged = solver.step(tol)
            it += 1
            if r is not None and not converged:
                state = {"it": it, "rr": solver.rr, "bnorm2": solver.bnorm2, "index": index}
                r.step(state=state, team=team)
        except _ALL_FAILURES as exc:
            recoveries = _admit(img, recoveries, exc)
            # Free peers parked inside MPI, then rebuild both runtimes'
            # survivor-side objects.
            comm.revoke()
            team, ckpt = r.recover_shrink(team, require_checkpoint=False)
            comm = comm.shrink()
            solver, index = _cg_solver(img, team, comm, ny, nx, seed, armed=False)
            # Without a checkpoint (the crash came before the first one), CG
            # cold-restarts on the shrunken team.
            cold, it = ckpt is None, 0
            if not cold:
                saved = ckpt.app_state[img.rank]
                _reload(solver, ckpt, saved["index"], ny, nx)
                it, solver.rr, solver.bnorm2 = saved["it"], saved["rr"], saved["bnorm2"]

    img.backend.quiet()
    img.barrier(team)
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
