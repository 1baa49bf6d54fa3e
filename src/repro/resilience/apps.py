"""Resilience-aware application ports: RandomAccess and CGPOP.

RandomAccess is restructured around **logical partitions**
(over-decomposition): its table is carved into P logical partitions where P
is the *initial* image count, and an owner map — partition to world rank —
is the only thing recovery has to update. CGPOP is the paper's solver,
:class:`~repro.apps.cgpop.CgSolver`, on row strips of the current team,
under a recovery loop. Under ``mode="restart"`` the whole job reruns from
the last checkpoint; under ``mode="shrink"`` survivors rebuild fresh
communication state on the shrunken team (RA adopts the dead image's
partitions, CGPOP re-cuts near-equal strips), reload their data from the
last checkpoint, and keep going.

Every blocking wait in the steady-state loop carries a timeout, so a crash
anywhere surfaces as :class:`~repro.util.errors.CafTimeoutError` /
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
from repro.resilience.recovery import check_recovery_mode
from repro.util.errors import (
    CafError,
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


# =========================================================================
# RandomAccess (GUPS), bucket-routed over logical partitions
# =========================================================================


def ra_stream_batch(
    seed: int, stream: int, batch: int, count: int, total_bits: int
) -> np.ndarray:
    """Deterministic update stream: partition ``stream``'s batch ``batch``.

    Keyed by the *logical* stream, not the image, so whichever image owns
    the stream after a recovery regenerates exactly the same updates.
    """
    rng = np.random.default_rng((seed, stream, batch))
    return rng.integers(0, 1 << total_bits, size=count, dtype=np.uint64)


def ra_reference(
    seed: int, nparts: int, table_bits: int, updates_per_batch: int, batches: int
) -> list[np.ndarray]:
    """Serial reference: the final content of every logical partition."""
    local_size = 1 << table_bits
    total = nparts * local_size
    total_bits = table_bits + max(int(np.log2(nparts)), 0) + 8
    tables = [np.zeros(local_size, np.uint64) for _ in range(nparts)]
    for s in range(nparts):
        for b in range(batches):
            u = ra_stream_batch(seed, s, b, updates_per_batch, total_bits)
            idx = (u % np.uint64(total)).astype(np.int64)
            dest = idx // local_size
            for d in range(nparts):
                sel = dest == d
                np.bitwise_xor.at(tables[d], (idx % local_size)[sel], u[sel])
    return tables


class _RaEpoch:
    """Communication state for one team incarnation of resilient RA.

    Rebuilt from scratch after every shrink so no stale event post from the
    aborted epoch can satisfy a post-recovery wait. ``armed`` marks a
    restart-resume epoch whose drained-credit counters were refilled from
    the checkpoint (writers must consume them from the first batch on).
    """

    def __init__(
        self, img: "Image", team: "Team", nparts: int, table_bits: int,
        cap: int, *, armed: bool,
    ):
        self.team = team
        self.nparts = nparts
        self.cap = cap
        self.row = cap + 1  # one length prefix per landing row
        self.tables = img.allocate_coarray(
            (nparts, 1 << table_bits), np.uint64, team=team
        )
        self.land = img.allocate_coarray(
            (nparts * nparts, self.row), np.uint64, team=team
        )
        self.arrive = img.allocate_events(nparts * nparts, team=team)
        self.drained = img.allocate_events(nparts * nparts, team=team)
        self.sent = [1 if armed else 0] * (nparts * nparts)
        r = img.resilience
        self.tables_index = r.coarray_index(self.tables) if r is not None else 0


def _ra_batch(
    img: "Image",
    epoch: _RaEpoch,
    owners: list[int],
    batch: int,
    *,
    seed: int,
    updates_per_batch: int,
    table_bits: int,
    timeout: float,
) -> None:
    """One routing round: every owned stream sends one bucket per partition."""
    P = epoch.nparts
    local_size = 1 << table_bits
    total = P * local_size
    total_bits = table_bits + max(int(np.log2(P)), 0) + 8
    team = epoch.team
    me = img.rank
    t_index = {w: i for i, w in enumerate(team.members)}
    my_streams = [s for s in range(P) if owners[s] == me]
    my_parts = my_streams  # one owner map for both roles

    # -- writer side ------------------------------------------------------
    for s in my_streams:
        u = ra_stream_batch(seed, s, batch, updates_per_batch, total_bits)
        idx = (u % np.uint64(total)).astype(np.int64)
        dest = idx // local_size
        for d in range(P):
            bucket = u[dest == d]
            if owners[d] == me:
                # Self-channel: apply directly, no landing zone involved.
                np.bitwise_xor.at(
                    epoch.tables.local[d],
                    (idx[dest == d] % local_size),
                    bucket,
                )
                continue
            slot = s * P + d
            if epoch.sent[slot] > 0:
                epoch.drained.wait(slot=slot, timeout=timeout)
            payload = np.empty(bucket.size + 1, np.uint64)
            payload[0] = bucket.size
            payload[1:] = bucket
            target = t_index[owners[d]]
            epoch.land.write(target, payload, offset=slot * epoch.row)
            epoch.arrive.notify(target, slot=slot)
            epoch.sent[slot] += 1

    # -- reader side ------------------------------------------------------
    for d in my_parts:
        row_table = epoch.tables.local[d]
        for s in range(P):
            if owners[s] == me:
                continue  # self-channel applied above
            slot = s * P + d
            epoch.arrive.wait(slot=slot, timeout=timeout)
            row = epoch.land.local[slot]
            n = int(row[0])
            incoming = row[1 : 1 + n]
            np.bitwise_xor.at(
                row_table,
                (incoming % np.uint64(total)).astype(np.int64) % local_size,
                incoming,
            )
            epoch.drained.notify(t_index[owners[s]], slot=slot)
    img.compute(flops=float(max(updates_per_batch, 1)))


def _reassign(owners: list[int], survivors: tuple[int, ...]) -> list[int]:
    """Adopt dead owners' partitions round-robin over the survivors."""
    new = list(owners)
    dead_parts = [d for d, w in enumerate(new) if w not in survivors]
    for i, d in enumerate(dead_parts):
        new[d] = survivors[i % len(survivors)]
    return new


def run_resilient_randomaccess(
    img: "Image",
    *,
    table_bits: int = 7,
    updates_per_batch: int = 128,
    batches: int = 8,
    seed: int = 42,
    recovery: str = "restart",
    wait_timeout: float = 0.25,
    max_recoveries: int = 3,
) -> dict:
    """Resilient GUPS: survives image crashes under either recovery mode.

    Final partition contents land in
    ``img.cluster.shared('ra-res-tables', dict)[partition]`` for
    verification against :func:`ra_reference`.
    """
    check_recovery_mode(recovery)
    P = img.nranks
    if P & (P - 1):
        raise CafError(
            f"logical partition count P={P} must be a power of two: "
            "run on a power-of-two number of images"
        )
    r = img.resilience
    team = img.team_world
    owners = list(range(P))
    start_batch = 0
    armed = False
    if r is not None and r.resumed is not None:
        start_batch = r.resume_step()
        state = r.resume_state(default={})
        owners = list(state.get("owners", owners))
        armed = start_batch > 0
    epoch = _RaEpoch(
        img, team, P, table_bits, updates_per_batch, armed=armed
    )
    img.sync_all()

    b = start_batch
    recoveries = 0
    while b < batches:
        try:
            _ra_batch(
                img, epoch, owners, b,
                seed=seed, updates_per_batch=updates_per_batch,
                table_bits=table_bits, timeout=wait_timeout,
            )
            b += 1
            if r is not None:
                r.step(
                    state={
                        "batch": b,
                        "owners": owners,
                        "table_index": epoch.tables_index,
                    },
                    team=team,
                )
        except _ALL_FAILURES as exc:
            if recovery != "shrink" or r is None:
                raise
            if not img.cluster.failed_ranks:
                raise  # a timeout with nobody dead is a real bug, not a crash
            recoveries += 1
            if recoveries > max_recoveries:
                raise ResilienceError(
                    f"recovery budget exhausted after {max_recoveries} shrinks: "
                    "raise max_recoveries"
                ) from exc
            team, ckpt = r.recover_shrink(team, require_checkpoint=False)
            if ckpt is None:
                # The crash predates the first checkpoint: cold-restart the
                # whole computation on the shrunken team.
                my_state = {}
            else:
                my_state = ckpt.app_state.get(img.rank) or {}
            b = int(my_state.get("batch", 0))
            old_owners = list(my_state.get("owners", range(P)))
            table_index = int(my_state.get("table_index", 0))
            owners = _reassign(old_owners, team.members)
            epoch = _RaEpoch(
                img, team, P, table_bits, updates_per_batch, armed=False
            )
            # Reload every partition I now own from its checkpoint-time
            # owner's snapshot (possibly the dead image's).
            local_size = 1 << table_bits
            for d in range(P):
                if owners[d] != img.rank or ckpt is None:
                    continue
                saved = ckpt.coarray_partition(old_owners[d], table_index)
                epoch.tables.local[d] = saved.reshape(P, local_size)[d]

    img.backend.quiet()
    img.barrier(team)
    out = img.cluster.shared("ra-res-tables", dict)
    for d in range(P):
        if owners[d] == img.rank:
            out[d] = epoch.tables.local[d].copy()
    return {
        "rank": img.rank,
        "parts": [d for d in range(P) if owners[d] == img.rank],
        "batches": batches,
        "recoveries": recoveries,
        "team_size": team.size,
    }


# =========================================================================
# CGPOP: apps.cgpop.CgSolver under a recovery loop
# =========================================================================


def _cg_solver(
    img: "Image", team: "Team", comm, ny: int, nx: int, seed: int, timeout: float | None,
    *, armed: bool,
) -> tuple[CgSolver, int]:
    """A strip solver on ``team`` whose x / r / p live in a checkpointable
    ``(3, ceil(ny/size), nx)`` coarray, and that coarray's checkpoint index.
    Allocation order is state, then the solver's halo, arrive and drained,
    so a restarted run's allocations refill the same checkpoint slots."""
    state = img.allocate_coarray((3, -(-ny // team.size), nx), np.float64, team=team)
    row0, row1 = block_bounds(team.my_index, ny, team.size)
    solver = CgSolver(
        img, team, comm, ny=ny, nx=nx, seed=seed, timeout=timeout,
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
    recovery: str = "restart",
    wait_timeout: float = 0.25,
    max_recoveries: int = 3,
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
    check_recovery_mode(recovery)
    r = img.resilience
    team = img.team_world
    comm = img.mpi().COMM_WORLD
    # A restarted run's state coarray and drained credits refill from the
    # checkpoint as they are allocated; rr and bnorm2 are its app state.
    saved = r.resume_state(default={}) if r is not None else {}
    solver, index = _cg_solver(img, team, comm, ny, nx, seed, wait_timeout, armed=bool(saved))
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
            if recovery != "shrink" or r is None:
                raise
            if not img.cluster.failed_ranks:
                raise  # a timeout with nobody dead is a real bug, not a crash
            recoveries += 1
            if recoveries > max_recoveries:
                raise ResilienceError(
                    f"recovery budget exhausted after {max_recoveries} shrinks: "
                    "raise max_recoveries"
                ) from exc
            # Free peers parked inside MPI, then rebuild both runtimes'
            # survivor-side objects.
            try:
                comm.revoke()
            except MpiRevokedError:  # pragma: no cover - defensive
                pass
            team, ckpt = r.recover_shrink(team, require_checkpoint=False)
            comm = comm.shrink()
            solver, index = _cg_solver(img, team, comm, ny, nx, seed, wait_timeout, armed=False)
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
