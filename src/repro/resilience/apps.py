"""Resilience-aware application ports: RandomAccess and CGPOP.

Both apps are restructured around **logical partitions** (over-decomposition):
global state is carved into P logical partitions where P is the *initial*
image count, and an owner map — partition to world rank — is the only thing
recovery has to update. Under ``mode="restart"`` the map stays the
identity and the whole job reruns from the last checkpoint; under
``mode="shrink"`` survivors adopt the dead image's partitions, rebuild
fresh communication state on the shrunken team, reload partition data from
the last checkpoint, and keep going.

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

from repro.apps.cgpop import apply_laplacian, make_rhs
from repro.mpi.constants import SUM
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
    P = img.nranks
    if P & (P - 1):
        raise CafError("logical partition count must be a power of two")
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
                    f"recovery budget exhausted after {max_recoveries} shrinks"
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
# CGPOP (hybrid MPI+CAF CG solver), strip re-partitioned on shrink
# =========================================================================


def _strip_bounds(ny: int, nparts: int) -> list[tuple[int, int]]:
    """Contiguous near-equal row ranges (the strip re-partition)."""
    splits = np.array_split(np.arange(ny), nparts)
    return [(int(s[0]), int(s[-1]) + 1) for s in splits]


class _CgEpoch:
    """Per-team-incarnation CG state: halo machinery plus the checkpointable
    state coarray (rows of x / r / p, padded to the symmetric max strip)."""

    def __init__(self, img: "Image", team: "Team", ny: int, nx: int, *, armed: bool):
        self.team = team
        self.nx = nx
        self.bounds = _strip_bounds(ny, team.size)
        self.rows_max = max(e - s for s, e in self.bounds)
        me = team.my_index
        self.r0, self.r1 = self.bounds[me]
        self.rows = self.r1 - self.r0
        self.state = img.allocate_coarray(
            (3, self.rows_max * nx), np.float64, team=team
        )
        r = img.resilience
        self.state_index = r.coarray_index(self.state) if r is not None else 0
        self.halo = img.allocate_coarray((2, nx), np.float64, team=team)
        self.arrive = img.allocate_events(2, team=team)
        self.drained = img.allocate_events(2, team=team)
        self.up = me - 1 if me > 0 else None
        self.down = me + 1 if me < team.size - 1 else None
        self._sent = [1 if armed else 0, 1 if armed else 0]

    def view(self, which: int) -> np.ndarray:
        """x (0), r (1), or p (2) as this strip's (rows, nx) view."""
        return self.state.local[which, : self.rows * self.nx].reshape(
            self.rows, self.nx
        )

    def exchange(self, v: np.ndarray, timeout: float) -> tuple[np.ndarray, np.ndarray]:
        """PUSH halo exchange with bounded waits."""
        nx = self.nx
        if self.up is not None and self._sent[0] > 0:
            self.drained.wait(slot=0, timeout=timeout)
        if self.down is not None and self._sent[1] > 0:
            self.drained.wait(slot=1, timeout=timeout)
        if self.up is not None:
            self.halo.write(self.up, v[0], offset=nx)  # their slot 1
            self.arrive.notify(self.up, slot=1)
            self._sent[0] += 1
        if self.down is not None:
            self.halo.write(self.down, v[-1], offset=0)  # their slot 0
            self.arrive.notify(self.down, slot=0)
            self._sent[1] += 1
        top = np.zeros(nx)
        bottom = np.zeros(nx)
        if self.up is not None:
            self.arrive.wait(slot=0, timeout=timeout)
            top = self.halo.local[0].copy()
            self.drained.notify(self.up, slot=1)
        if self.down is not None:
            self.arrive.wait(slot=1, timeout=timeout)
            bottom = self.halo.local[1].copy()
            self.drained.notify(self.down, slot=0)
        return top, bottom


def _assemble_from_checkpoint(
    ckpt, my_state: dict, ny: int, nx: int
) -> np.ndarray:
    """Rebuild the global (3, ny, nx) CG state from a checkpoint."""
    bounds = [tuple(b) for b in my_state["bounds"]]
    members = list(my_state["members"])
    state_index = int(my_state["state_index"])
    rows_max = max(e - s for s, e in bounds)
    out = np.zeros((3, ny, nx))
    for idx, w in enumerate(members):
        s, e = bounds[idx]
        saved = ckpt.coarray_partition(w, state_index).reshape(3, rows_max * nx)
        for which in range(3):
            out[which, s:e] = saved[which, : (e - s) * nx].reshape(e - s, nx)
    return out


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
    """Resilient hybrid CG: halo over CAF, global sums over MPI.

    The solver survives a mid-run crash either by full restart from the
    last checkpoint or by shrinking: survivors revoke the communicator
    (freeing peers parked in MPI), ``MPIX_COMM_SHRINK`` a clean one,
    shrink the CAF team, re-partition the strips, and reload state from
    the checkpoint. The converged strip lands in ``run_cgpop``'s record,
    ``img.cluster.shared('cgpop-solution', dict)[rank] = (r0, 0, x)``.
    """
    r = img.resilience
    team = img.team_world
    mpi = img.mpi()
    comm = mpi.COMM_WORLD
    b_global = make_rhs(seed, ny, nx)

    def gsum(comm, *values: float) -> list[float]:
        send = np.array(values)
        recv = np.zeros(len(values))
        comm.allreduce(send, recv, SUM)
        return [float(v) for v in recv]

    armed = False
    it = 0
    rr = bnorm2 = None
    if r is not None and r.resumed is not None:
        state = r.resume_state(default={})
        it = int(state.get("it", 0))
        rr = state.get("rr")
        bnorm2 = state.get("bnorm2")
        armed = it > 0
    epoch = _CgEpoch(img, team, ny, nx, armed=armed)
    img.sync_all()

    def b_strip() -> np.ndarray:
        return b_global[epoch.r0 : epoch.r1]

    def matvec(v: np.ndarray) -> np.ndarray:
        top, bottom = epoch.exchange(v, wait_timeout)
        if epoch.team.my_index == 0:
            top = np.zeros(nx)  # Dirichlet boundary
        if epoch.team.my_index == epoch.team.size - 1:
            bottom = np.zeros(nx)
        side = np.zeros(v.shape[0])
        out = apply_laplacian(v, top, bottom, side, side)
        img.compute(flops=10.0 * v.size)
        return out

    recoveries = 0
    converged = False
    while it < max_iter and not converged:
        try:
            if rr is None:
                # Cold start (or post-crash cold restart): r = b - A*0 = b.
                epoch.view(0)[:] = 0.0
                epoch.view(1)[:] = b_strip()
                epoch.view(2)[:] = b_strip()
                (rr,) = gsum(comm, float((b_strip() ** 2).sum()))
                bnorm2 = rr
            x, res, p = epoch.view(0), epoch.view(1), epoch.view(2)
            ap = matvec(p)
            (pap,) = gsum(comm, float((p * ap).sum()))
            alpha = rr / pap
            x += alpha * p
            res -= alpha * ap
            (rr_new,) = gsum(comm, float((res * res).sum()))
            it += 1
            if rr_new <= tol * tol * bnorm2:
                converged = True
            else:
                p *= rr_new / rr
                p += res
            img.compute(flops=8.0 * x.size)
            rr = rr_new
            if r is not None and not converged:
                r.step(
                    state={
                        "it": it,
                        "rr": rr,
                        "bnorm2": bnorm2,
                        "bounds": [list(b) for b in epoch.bounds],
                        "members": list(epoch.team.members),
                        "state_index": epoch.state_index,
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
                    f"recovery budget exhausted after {max_recoveries} shrinks"
                ) from exc
            # Free peers parked inside MPI, then rebuild both runtimes'
            # survivor-side objects.
            try:
                comm.revoke()
            except MpiRevokedError:  # pragma: no cover - defensive
                pass
            team, ckpt = r.recover_shrink(team, require_checkpoint=False)
            comm = comm.shrink()
            epoch = _CgEpoch(img, team, ny, nx, armed=False)
            if ckpt is None:
                # Crash before the first checkpoint: cold-restart CG on the
                # shrunken team (the rr=None branch below re-initializes).
                it, rr, bnorm2 = 0, None, None
            else:
                my_state = ckpt.app_state.get(img.rank) or {}
                glob = _assemble_from_checkpoint(ckpt, my_state, ny, nx)
                it = int(my_state["it"])
                rr = float(my_state["rr"])
                bnorm2 = float(my_state["bnorm2"])
                for which in range(3):
                    epoch.view(which)[:] = glob[which, epoch.r0 : epoch.r1]

    img.backend.quiet()
    img.barrier(team)
    img.cluster.shared("cgpop-solution", dict)[img.rank] = (
        epoch.r0, 0, epoch.view(0).copy(),
    )
    return {
        "rank": img.rank,
        "iterations": it,
        "converged": converged,
        "residual": float(np.sqrt(max(rr, 0.0))),
        "recoveries": recoveries,
        "team_size": team.size,
        "rows": [epoch.r0, epoch.r1],
    }

