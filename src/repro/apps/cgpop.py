"""The CGPOP miniapp on the CAF 2.0 API — §4.4 of the paper.

The conjugate-gradient solver from LANL POP (the performance bottleneck of
the full ocean model), as a **hybrid MPI+CAF** program — the paper's
headline interoperability demonstration: halo exchange uses coarray
primitives (PUSH or PULL variants), while the global sums use
``MPI_Allreduce`` directly.

Problem: the 2-D 5-point Laplacian (Dirichlet) on an ``ny x nx`` grid,
distributed in near-equal blocks over a ``px x (P/px)`` image grid; the
default ``px=1`` is contiguous row strips. Each CG iteration performs one
halo exchange (the ``UpdateHalo`` of the miniapp) and one fused 3-word
reduction (the ``GlobalSum``). One image's share is a resumable
:class:`CgSolver`: :func:`run_cgpop` drives it, and
:mod:`repro.resilience.apps` runs it under a recovery loop.

* **PUSH**: every image *writes* its edges into its neighbors' halo
  coarray, then posts an event; the neighbor waits.
* **PULL**: every image publishes its edges into its own export coarray,
  posts "ready", and neighbors *read* (coarray get) after the event
  arrives, then acknowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.caf.image import Image
from repro.mpi.constants import SUM
from repro.util.errors import CafError

if TYPE_CHECKING:
    from repro.caf.teams import Team
    from repro.mpi.comm import Comm


@dataclass
class CgpopResult:
    nranks: int
    ny: int
    nx: int
    iterations: int
    residual: float
    elapsed: float
    converged: bool


def make_rhs(seed: int, ny: int, nx: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((ny, nx))


def apply_laplacian(
    local: np.ndarray,
    north: np.ndarray,
    south: np.ndarray,
    west: np.ndarray,
    east: np.ndarray,
) -> np.ndarray:
    """5-point stencil on this block, given the four halo vectors."""
    out = 4.0 * local
    out[1:, :] -= local[:-1, :]
    out[0, :] -= north
    out[:-1, :] -= local[1:, :]
    out[-1, :] -= south
    out[:, 1:] -= local[:, :-1]
    out[:, 0] -= west
    out[:, :-1] -= local[:, 1:]
    out[:, -1] -= east
    return out


def block_bounds(k: int, n: int, parts: int) -> tuple[int, int]:
    """Part ``k`` of ``range(n)`` cut into ``parts`` near-equal contiguous
    ranges; equal ones whenever ``parts`` divides ``n``."""
    return k * n // parts, (k + 1) * n // parts


class _HaloExchanger:
    """PUSH/PULL halo exchange over coarrays + events on a px x py grid of
    ``team``'s images, neighbors addressed by team index.

    One link per existing neighbor, in the order north, south, west, east:
    ``(neighbor, my edge facing it, its slot facing me, my slot facing it)``.
    Slot ``s`` is direction ``s`` in the coarray and in both event arrays.
    Under PUSH my slot ``s`` receives the halo from direction ``s``; under
    PULL it exports my edge facing direction ``s``. ``armed`` starts past
    round 0: the ``drained`` credits are already posted (a restarted run
    gets them back from its checkpoint).
    """

    def __init__(
        self, img: Image, team: Team, px: int, py: int, ny: int, nx: int,
        ry: int, rx: int, mode: str, armed: bool,
    ):
        if mode not in ("push", "pull"):
            raise CafError(f"halo mode must be 'push' or 'pull', got {mode!r}")
        self.mode = mode
        me = team.my_index
        ix, iy = me % px, me // px
        self.lengths = (rx, rx, ry, ry)
        self.links = []
        if iy > 0:
            self.links.append((me - px, lambda v: v[0, :], 1, 0))
        if iy < py - 1:
            self.links.append((me + px, lambda v: v[-1, :], 0, 1))
        if ix > 0:
            self.links.append((me - 1, lambda v: v[:, 0], 3, 2))
        if ix < px - 1:
            self.links.append((me + 1, lambda v: v[:, -1], 2, 3))
        # Strips need only the north/south slots, rows of nx; a block grid's
        # slots fit the longest edge of any block.
        nslots, self.width = (2, nx) if px == 1 else (4, max(-(-nx // px), -(-ny // py)))
        self.buf = img.allocate_coarray((nslots, self.width), np.float64, team=team)
        self.arrive = img.allocate_events(nslots, team=team)
        self.drained = img.allocate_events(nslots, team=team)
        self._round = 1 if armed else 0

    def exchange(self, local: np.ndarray) -> list[np.ndarray]:
        """Returns the (north, south, west, east) halos of this block; a side
        without a neighbor is the zero Dirichlet boundary."""
        if self._round > 0:
            for _nbr, _edge, _theirs, mine in self.links:
                self.drained.wait(slot=mine)
        for nbr, edge, theirs, mine in self.links:
            if self.mode == "pull":
                self.buf.local[mine, : self.lengths[mine]] = edge(local)
            else:
                self.buf.write_async(nbr, edge(local), offset=theirs * self.width)
        for nbr, _edge, theirs, _mine in self.links:
            self.arrive.notify(nbr, slot=theirs)
        halos = [np.zeros(n) for n in self.lengths]
        for nbr, _edge, theirs, mine in self.links:
            n = self.lengths[mine]
            self.arrive.wait(slot=mine)
            if self.mode == "pull":
                halos[mine] = self.buf.read(nbr, offset=theirs * self.width, count=n)
            else:
                halos[mine] = self.buf.local[mine, :n].copy()
            self.drained.notify(nbr, slot=theirs)
        self._round += 1
        return halos


class CgSolver:
    """One image's share of the CG solve on ``team``, resumable.

    Image ``i`` of ``team`` owns block row ``i // px`` and block column
    ``i % px`` of a ``px x (size/px)`` image grid; block bounds are
    :func:`block_bounds` on both axes. ``x, r, p`` are ``state[0..2]``, a
    ``(3, rows, cols)`` array the caller hands in (a checkpointed coarray's
    view) or fresh zeros. :meth:`start` initializes them; each :meth:`step`
    is one CG iteration. ``rr`` and ``bnorm2`` are the state beyond the
    arrays, so ``x, r, p, rr, bnorm2`` resume a solve. Global sums run on
    ``comm``, whose ranks must be ``team``'s.
    """

    def __init__(
        self, img: Image, team: Team, comm: Comm, *, ny: int, nx: int, px: int = 1,
        mode: str = "push", seed: int = 11, state: np.ndarray | None = None,
        armed: bool = False,
    ):
        p = team.size
        if px < 1 or p % px:
            raise CafError(f"px must divide P={p}, got px={px}: choose px dividing P")
        py = p // px
        if ny < py or nx < px:
            raise CafError(
                f"grid {ny}x{nx} too small for {py}x{px} images, every block "
                "needs a point: ny must be at least P/px, nx at least px"
            )
        me = team.my_index
        self.row0, self.row1 = block_bounds(me // px, ny, py)
        self.col0, col1 = block_bounds(me % px, nx, px)
        ry, rx = self.row1 - self.row0, col1 - self.col0
        self.img = img
        self.comm = comm
        self.b = make_rhs(seed, ny, nx)[self.row0 : self.row1, self.col0 : col1].copy()
        self.halo = _HaloExchanger(img, team, px, py, ny, nx, ry, rx, mode, armed)
        if state is None:
            state = np.zeros((3, ry, rx))
        self.x, self.r, self.p = state[0], state[1], state[2]
        self.rr = self.bnorm2 = 0.0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        north, south, west, east = self.halo.exchange(v)
        out = apply_laplacian(v, north, south, west, east)
        self.img.compute(flops=10.0 * v.size)
        return out

    def global_sum3(self, a: float, bb: float, c: float) -> tuple[float, float, float]:
        # The miniapp's 3-word GlobalSum: one fused MPI reduction.
        send = np.array([a, bb, c])
        recv = np.zeros(3)
        self.comm.allreduce(send, recv, SUM)
        return float(recv[0]), float(recv[1]), float(recv[2])

    def start(self) -> None:
        """x = 0, r = p = b - A x, and the initial residual and ||b||^2."""
        self.x[:] = 0.0
        self.r[:] = self.b - self.matvec(self.x)
        self.p[:] = self.r
        rr = float((self.r * self.r).sum())
        self.rr, _, self.bnorm2 = self.global_sum3(rr, 0.0, float((self.b * self.b).sum()))

    def step(self, tol: float) -> bool:
        """One CG iteration; True once ||r|| <= tol ||b||."""
        x, r, p = self.x, self.r, self.p
        ap = self.matvec(p)
        pap, _, _ = self.global_sum3(float((p * ap).sum()), 0.0, 0.0)
        alpha = self.rr / pap
        x += alpha * p
        r -= alpha * ap
        self.img.compute(flops=4.0 * x.size)
        rr_new, _, _ = self.global_sum3(float((r * r).sum()), 0.0, 0.0)
        converged = rr_new <= tol * tol * self.bnorm2
        if not converged:
            p[:] = r + (rr_new / self.rr) * p
            self.img.compute(flops=2.0 * x.size)
        self.rr = rr_new
        return converged


def run_cgpop(
    img: Image,
    *,
    ny: int = 64,
    nx: int = 32,
    px: int = 1,
    mode: str = "push",
    tol: float = 1e-8,
    max_iter: int = 500,
    seed: int = 11,
) -> CgpopResult:
    """One image's SPMD body: CG on the 5-point Laplacian, hybrid MPI+CAF.

    The images form a ``px x (P/px)`` grid, image ``r`` at column
    ``r % px`` and row ``r // px``; ``px=1`` is row strips. A grid that
    does not divide gets near-equal blocks. This image's solution block
    lands in ``img.cluster.shared('cgpop-solution', dict)[rank] =
    (row0, col0, x)``.
    """
    mpi = img.mpi()  # the hybrid part: global sums via MPI
    solver = CgSolver(
        img, img.team_world, mpi.COMM_WORLD, ny=ny, nx=nx, px=px, mode=mode, seed=seed
    )
    img.sync_all()
    t0 = img.now
    solver.start()
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        converged = solver.step(tol)
        if converged:
            break
    img.sync_all()
    elapsed = img.now - t0
    img.cluster.shared("cgpop-solution", dict)[img.rank] = (solver.row0, solver.col0, solver.x)
    return CgpopResult(
        nranks=img.nranks,
        ny=ny,
        nx=nx,
        iterations=iterations,
        residual=float(np.sqrt(max(solver.rr, 0.0))),
        elapsed=elapsed,
        converged=converged,
    )


def assemble_solution(
    blocks: dict[int, tuple[int, int, np.ndarray]], ny: int, nx: int
) -> np.ndarray:
    """The global grid from per-image ``(row0, col0, block)`` records."""
    out = np.zeros((ny, nx))
    for row0, col0, block in blocks.values():
        ry, rx = block.shape
        out[row0 : row0 + ry, col0 : col0 + rx] = block
    return out
