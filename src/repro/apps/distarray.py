"""Distributed arrays over coarrays — the paper's QMCPACK/GFMC motivation.

§1: applications like QMCPACK and GFMC keep large per-node tables whose
growth outpaces node memory; the paper's §7 future work is to "define
these arrays as CAF coarrays, allowing the runtime to distribute them
across nodes and convert load/store accesses of these arrays to remote
data access operations". :class:`DistributedArray` is exactly that
conversion: a flat global array block-distributed over a team, with
NumPy-style indexed reads/writes that become coarray get/put when the
index lands on another image.
"""

from __future__ import annotations

import numpy as np

from repro.caf.image import Image
from repro.caf.teams import Team
from repro.util.errors import CafError


class DistributedArray:
    """A 1-D global array of ``total`` elements, block-distributed.

    Element ``i`` lives on image ``i // block`` (last image absorbs the
    remainder). Reads/writes accept ints, slices, or fancy index arrays;
    remote portions travel as coarray transfers, batched per owner.
    """

    def __init__(self, img: Image, total: int, dtype=np.float64, team: Team | None = None):
        if total <= 0:
            raise CafError(f"DistributedArray needs a positive size, got {total}")
        self.img = img
        self.team = team or img.team_world
        self.total = int(total)
        self.dtype = np.dtype(dtype)
        p = self.team.size
        self.block = -(-self.total // p)  # ceil division
        my_lo = min(self.team.my_index * self.block, self.total)
        my_hi = min(my_lo + self.block, self.total)
        self.local_range = (my_lo, my_hi)
        # Every image allocates the full block size (symmetric coarray);
        # the tail image simply leaves its excess unused.
        self.coarray = img.allocate_coarray(self.block, self.dtype, team=self.team)

    # -- mapping -----------------------------------------------------------

    @property
    def local(self) -> np.ndarray:
        """This image's block (direct, no communication)."""
        lo, hi = self.local_range
        return self.coarray.local[: hi - lo]

    def _partition(self, indices: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Group global indices by owning image.

        Returns owner -> (positions into the request, local offsets).
        """
        owners = indices // self.block
        groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for owner in np.unique(owners):
            sel = np.nonzero(owners == owner)[0]
            groups[int(owner)] = (sel, indices[sel] - owner * self.block)
        return groups

    def _normalize(self, key) -> np.ndarray:
        if isinstance(key, slice):
            start, stop, step = key.indices(self.total)
            idx = np.arange(start, stop, step)
        else:
            idx = np.atleast_1d(np.asarray(key, dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= self.total):
            raise CafError(
                f"index range [{idx.min()}, {idx.max()}] outside [0, {self.total})"
            )
        return idx

    # -- access --------------------------------------------------------------

    def __getitem__(self, key) -> np.ndarray | np.generic:
        scalar = isinstance(key, (int, np.integer))
        idx = self._normalize(key)
        out = np.empty(idx.size, self.dtype)
        for owner, (positions, offsets) in self._partition(idx).items():
            if owner == self.team.my_index:
                out[positions] = self.coarray.local[offsets]
            elif _contiguous(offsets):
                lo, hi = int(offsets[0]), int(offsets[-1]) + 1
                out[positions] = self.coarray.read(owner, offset=lo, count=hi - lo)
            else:
                # Batched gather: fetch the covering range once, then select.
                lo, hi = int(offsets.min()), int(offsets.max()) + 1
                chunk = self.coarray.read(owner, offset=lo, count=hi - lo)
                out[positions] = chunk[offsets - lo]
        return out[0] if scalar else out

    def __setitem__(self, key, values) -> None:
        idx = self._normalize(key)
        vals = np.broadcast_to(
            np.asarray(values, dtype=self.dtype), idx.shape
        )
        for owner, (positions, offsets) in self._partition(idx).items():
            if owner == self.team.my_index:
                self.coarray.local[offsets] = vals[positions]
            elif _contiguous(offsets):
                self.coarray.write(
                    owner, vals[positions], offset=int(offsets[0])
                )
            else:
                # Read-modify-write of the covering range would race other
                # writers; write element runs instead.
                for pos, off in zip(positions, offsets):
                    self.coarray.write(owner, vals[pos : pos + 1], offset=int(off))

    def add_at(self, key, values) -> None:
        """Element-wise remote accumulation (read-modify-write per owner).

        Unlike ``__setitem__`` this is *not* atomic against concurrent
        accumulators; synchronize rounds with events or barriers (as GFMC's
        communication phases do).
        """
        idx = self._normalize(key)
        vals = np.broadcast_to(np.asarray(values, dtype=self.dtype), idx.shape)
        for owner, (positions, offsets) in self._partition(idx).items():
            if owner == self.team.my_index:
                np.add.at(self.coarray.local, offsets, vals[positions])
            else:
                lo, hi = int(offsets.min()), int(offsets.max()) + 1
                chunk = self.coarray.read(owner, offset=lo, count=hi - lo)
                np.add.at(chunk, offsets - lo, vals[positions])
                self.coarray.write(owner, chunk, offset=lo)

    # -- collectives over the array -----------------------------------------------

    def gather(self) -> np.ndarray:
        """Every image gets the whole array (allgather of blocks)."""
        blocks = np.zeros((self.team.size, self.block), self.dtype)
        self.img.team_allgather(self.coarray.local, blocks, team=self.team)
        return blocks.reshape(-1)[: self.total]

    def global_sum(self) -> float:
        from repro.mpi.constants import SUM

        send = np.array([float(self.local.sum())])
        recv = np.zeros(1)
        self.img.team_allreduce(send, recv, SUM, team=self.team)
        return float(recv[0])

    def fill(self, value: float) -> None:
        self.local[:] = value

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.local_range
        return (
            f"<DistributedArray total={self.total} dtype={self.dtype} "
            f"block={self.block} local=[{lo},{hi})>"
        )


def _contiguous(offsets: np.ndarray) -> bool:
    return offsets.size > 0 and bool(
        (np.diff(offsets) == 1).all() if offsets.size > 1 else True
    )
