"""The CGPOP miniapp on the CAF 2.0 API — §4.4 of the paper.

The conjugate-gradient solver from LANL POP (the performance bottleneck of
the full ocean model), as a **hybrid MPI+CAF** program — the paper's
headline interoperability demonstration: halo exchange uses coarray
primitives (PUSH or PULL variants), while the global sums use
``MPI_Allreduce`` directly.

Problem: the 2-D 5-point Laplacian (Dirichlet) on an ``ny x nx`` grid,
distributed in blocks over a ``px x (P/px)`` image grid; the default
``px=1`` is contiguous row strips. Each CG iteration performs one halo
exchange (the ``UpdateHalo`` of the miniapp) and one fused 3-word
reduction (the ``GlobalSum``).

* **PUSH**: every image *writes* its edges into its neighbors' halo
  coarray, then posts an event; the neighbor waits.
* **PULL**: every image publishes its edges into its own export coarray,
  posts "ready", and neighbors *read* (coarray get) after the event
  arrives, then acknowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caf.image import Image
from repro.mpi.constants import SUM
from repro.util.errors import CafError


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


class _HaloExchanger:
    """PUSH/PULL halo exchange over coarrays + events on a px x py image grid.

    One link per existing neighbor, in the order north, south, west, east:
    ``(neighbor, my edge facing it, its slot facing me, my slot facing it)``.
    Slot ``s`` is direction ``s`` in the coarray and in both event arrays.
    Under PUSH my slot ``s`` receives the halo from direction ``s``; under
    PULL it exports my edge facing direction ``s``.
    """

    def __init__(self, img: Image, px: int, py: int, ry: int, rx: int, mode: str):
        if mode not in ("push", "pull"):
            raise CafError(f"halo mode must be 'push' or 'pull', got {mode!r}")
        self.mode = mode
        rank = img.rank
        ix, iy = rank % px, rank // px
        self.lengths = (rx, rx, ry, ry)
        self.links = []
        if iy > 0:
            self.links.append((rank - px, lambda v: v[0, :], 1, 0))
        if iy < py - 1:
            self.links.append((rank + px, lambda v: v[-1, :], 0, 1))
        if ix > 0:
            self.links.append((rank - 1, lambda v: v[:, 0], 3, 2))
        if ix < px - 1:
            self.links.append((rank + 1, lambda v: v[:, -1], 2, 3))
        # Strips need only the north/south slots, rows of nx.
        nslots, self.width = (2, rx) if px == 1 else (4, max(rx, ry))
        self.buf = img.allocate_coarray((nslots, self.width), np.float64)
        self.arrive = img.allocate_events(nslots)
        self.drained = img.allocate_events(nslots)
        self._round = 0

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
    ``r % px`` and row ``r // px``; ``px=1`` is row strips. This image's solution block lands in
    ``img.cluster.shared('cgpop-solution', dict)[rank] = (row0, col0, x)``.
    """
    p = img.nranks
    if px < 1 or p % px:
        raise CafError(f"px must divide P={p}, got px={px}: choose px dividing P")
    py = p // px
    if ny % py or nx % px:
        raise CafError(
            f"grid {ny}x{nx} not divisible by {py}x{px} images, which must "
            "divide it: ny must be a multiple of P/px, nx of px"
        )
    ry, rx = ny // py, nx // px
    row0, col0 = img.rank // px * ry, img.rank % px * rx
    b = make_rhs(seed, ny, nx)[row0 : row0 + ry, col0 : col0 + rx].copy()
    mpi = img.mpi()  # the hybrid part: global sums via MPI
    halo = _HaloExchanger(img, px, py, ry, rx, mode)

    def matvec(v: np.ndarray) -> np.ndarray:
        north, south, west, east = halo.exchange(v)
        out = apply_laplacian(v, north, south, west, east)
        img.compute(flops=10.0 * v.size)
        return out

    def global_sum3(a: float, bb: float, c: float) -> tuple[float, float, float]:
        # The miniapp's 3-word GlobalSum: one fused MPI reduction.
        send = np.array([a, bb, c])
        recv = np.zeros(3)
        mpi.COMM_WORLD.allreduce(send, recv, SUM)
        return float(recv[0]), float(recv[1]), float(recv[2])

    img.sync_all()
    t0 = img.now

    x = np.zeros_like(b)
    r = b - matvec(x)
    pvec = r.copy()
    rr, _, bnorm2 = global_sum3(float((r * r).sum()), 0.0, float((b * b).sum()))
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        ap = matvec(pvec)
        pap, _, _ = global_sum3(float((pvec * ap).sum()), 0.0, 0.0)
        alpha = rr / pap
        x += alpha * pvec
        r -= alpha * ap
        img.compute(flops=4.0 * x.size)
        rr_new, _, _ = global_sum3(float((r * r).sum()), 0.0, 0.0)
        iterations = it
        if rr_new <= tol * tol * bnorm2:
            rr = rr_new
            converged = True
            break
        pvec = r + (rr_new / rr) * pvec
        img.compute(flops=2.0 * x.size)
        rr = rr_new

    img.sync_all()
    elapsed = img.now - t0
    img.cluster.shared("cgpop-solution", dict)[img.rank] = (row0, col0, x)
    return CgpopResult(
        nranks=p,
        ny=ny,
        nx=nx,
        iterations=iterations,
        residual=float(np.sqrt(max(rr, 0.0))),
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
