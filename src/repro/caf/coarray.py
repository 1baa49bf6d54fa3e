"""Coarrays: symmetric distributed arrays with one-sided remote access.

A coarray allocated over a team gives every member image a same-shaped
local array plus one-sided access to any other member's copy via the
codimension (the image index). ``A(:)[p]`` in CAF syntax becomes
``A.read(p)`` / ``A.write(p, data)`` here; both are blocking and remotely
complete on return, per §3.1 of the paper. Asynchronous variants
(``copy_async``, §3.3) take optional predicate / source / destination
events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import CafError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.events import EventArray
    from repro.caf.image import Image
    from repro.caf.teams import Team


class Coarray:
    """One image's handle on a coarray."""

    def __init__(self, img: "Image", team: "Team", shape, dtype):
        self.img = img
        self.team = team
        self.shape = tuple(np.atleast_1d(np.asarray(shape, int)).tolist()) if not np.isscalar(shape) else (int(shape),)
        self.dtype = np.dtype(dtype)
        self.nelems = int(np.prod(self.shape))
        self.storage = img.backend.allocate_coarray(team, self.nelems, self.dtype)

    # -- local access ------------------------------------------------------

    @property
    def local(self) -> np.ndarray:
        """This image's segment, shaped as allocated."""
        return self.img.backend.local_view(self.storage).reshape(self.shape)

    def _check(self, target: int, runs: list[tuple[int, int]]) -> None:
        if not 0 <= target < self.team.size:
            raise CafError(
                f"image index {target} out of range [0, {self.team.size})"
            )
        self.img._check_alive(self.team, target)
        for offset, count in runs:
            if offset < 0 or offset + count > self.nelems:
                raise CafError(
                    f"coarray access [{offset}, {offset + count}) outside "
                    f"{self.nelems}-element coarray"
                )

    # -- blocking remote access ------------------------------------------------

    def write(self, target: int, data, offset: int = 0) -> None:
        """``A(offset:...)[target] = data`` — blocking, remotely complete."""
        arr = np.ascontiguousarray(data, dtype=self.dtype).reshape(-1)
        self._put(target, [(offset, arr.size)], arr)

    def read(self, target: int, offset: int = 0, count: int | None = None) -> np.ndarray:
        """``A(offset:offset+count)[target]`` — blocking read."""
        if count is None:
            count = self.nelems - offset
        return self._get(target, [(offset, count)], (count,))

    def _put(self, target: int, runs: list[tuple[int, int]], arr: np.ndarray) -> None:
        """The one blocking write: flat ``arr`` over the (element offset,
        length) ``runs`` of image ``target``'s coarray."""
        self._check(target, runs)
        if runs:
            with self.img.profile("coarray_write", "caf.coarray_write", arr.nbytes):
                self.img.backend.coarray_write(self.storage, target, runs, arr)

    def _get(self, target: int, runs: list[tuple[int, int]], shape) -> np.ndarray:
        """The one blocking read: image ``target``'s ``runs``, shaped ``shape``."""
        self._check(target, runs)
        out = np.empty(shape, self.dtype)
        if runs:
            with self.img.profile("coarray_read", "caf.coarray_read", out.nbytes):
                self.img.backend.coarray_read(self.storage, target, runs, out.reshape(-1))
        return out

    # -- strided section access (Fortran array sections) -------------------------

    def _section_runs(self, key) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
        """Map an ndim slice key to flat (offset, length) runs + the shape."""
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > len(self.shape):
            raise CafError(
                f"section key has {len(key)} dims for a {len(self.shape)}-d coarray"
            )
        index_grid = np.arange(self.nelems).reshape(self.shape)[key]
        shape = index_grid.shape
        flat = np.atleast_1d(index_grid).reshape(-1)
        if flat.size == 0:
            return [], shape
        breaks = np.nonzero(np.diff(flat) != 1)[0] + 1
        starts = flat[np.concatenate([[0], breaks])]
        bounds = np.concatenate([[0], breaks, [flat.size]])
        lengths = np.diff(bounds)
        return [
            (int(s), int(n)) for s, n in zip(starts, lengths)
        ], shape

    def write_section(self, target: int, key, data) -> None:
        """``A(section)[target] = data``: a strided remote write.

        ``key`` is anything NumPy basic indexing accepts (slices / ints per
        dimension). Moves as one derived-datatype/VIS message, not one
        message per element.
        """
        runs, shape = self._section_runs(key)
        arr = np.ascontiguousarray(
            np.broadcast_to(np.asarray(data, dtype=self.dtype), shape)
        ).reshape(-1)
        self._put(target, runs, arr)

    def read_section(self, target: int, key) -> np.ndarray:
        """``A(section)[target]``: a strided remote read, shaped like the section."""
        runs, shape = self._section_runs(key)
        return self._get(target, runs, shape)

    # -- asynchronous remote access (§3.3) -----------------------------------------

    def write_async(
        self,
        target: int,
        data,
        offset: int = 0,
        *,
        predicate: "tuple[EventArray, int] | None" = None,
        src_event: "tuple[EventArray, int] | None" = None,
        dest_event: "tuple[EventArray, int] | None" = None,
    ) -> None:
        """``copy_async`` with a remote destination (§2.1).

        ``predicate`` delays the copy until that event is posted;
        ``src_event`` posts when the source buffer is reusable;
        ``dest_event`` posts *at the target image* when the data has
        arrived (the §3.3 case-4 AM path under CAF-MPI).
        """
        arr = np.ascontiguousarray(data, dtype=self.dtype).reshape(-1)
        self._check(target, [(offset, arr.size)])
        img = self.img

        dest = None
        if dest_event is not None:
            ev, slot = dest_event
            dest = (ev.storage, slot)

        def start() -> None:
            reusable = img.backend.coarray_write_async(
                self.storage, target, offset, arr, dest_event=dest
            )
            if src_event is not None:
                sev, sslot = src_event
                if reusable is None:  # the transport already copied ``arr``
                    sev._post_local(sslot)
                else:
                    sev._post_on(reusable, sslot)

        if predicate is None:
            start()
        else:
            pev, pslot = predicate
            pev.on_next_post(pslot, start)

    def read_async(
        self,
        target: int,
        out: np.ndarray,
        offset: int = 0,
        *,
        predicate: "tuple[EventArray, int] | None" = None,
        dest_event: "tuple[EventArray, int] | None" = None,
    ) -> None:
        """Asynchronous read into ``out`` (local completion == data ready)."""
        out_arr = np.asarray(out)
        if out_arr.dtype != self.dtype:
            raise CafError(
                f"read_async buffer dtype {out_arr.dtype} != coarray dtype {self.dtype}"
            )
        self._check(target, [(offset, out_arr.size)])
        img = self.img

        def start() -> None:
            landed = img.backend.coarray_read_async(
                self.storage, target, offset, out_arr
            )
            if dest_event is not None:
                ev, slot = dest_event
                ev._post_on(landed, slot)

        if predicate is None:
            start()
        else:
            pev, pslot = predicate
            pev.on_next_post(pslot, start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Coarray shape={self.shape} dtype={self.dtype} "
            f"team={self.team.team_id} image={self.team.my_index}>"
        )
