"""``finish`` blocks: collective global-completion scopes (§2.1, §3.5).

A ``finish`` block guarantees that, on exit, all asynchronous operations
issued *by any team member inside the block* are globally complete. Two
implementations, per the paper:

* **Fast** (no function shipping inside): ``MPI_WIN_FLUSH_ALL`` on every
  window the image touched, followed by an ``MPI_BARRIER`` over the team
  (or the GASNet equivalents).
* **Termination detection** (Yang's algorithm): repeated SUM reductions of
  ``shipped - completed`` across the team until the global difference is
  zero — needed because shipped functions can ship further functions, so
  no single barrier suffices. Worst case ``n`` rounds for a depth-``n``
  shipping chain.

Blocks nest: inner blocks only complete work issued inside themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import SUM
from repro.util.errors import CafError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.image import Image
    from repro.caf.teams import Team


class FinishBlock:
    def __init__(self, img: "Image", team: "Team", fast: bool | None):
        self.img = img
        self.team = team
        self.fast = fast
        self._entered = False
        self._ship_baseline = 0

    def __enter__(self) -> "FinishBlock":
        if self._entered:
            raise CafError("finish block entered twice")
        self._entered = True
        # A finish is collective: members line up on entry.
        self.team.handle.barrier()
        self._ship_baseline = self.img.backend.shipped_minus_completed()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return  # don't mask the exception with collective waits
        backend = self.img.backend
        with self.img.profile("finish"):
            use_fast = self.fast
            if use_fast is None:
                # Auto: TD only if anyone may have shipped functions. Cheap
                # agreement: one allreduce of the local shipping deltas.
                local = np.array(
                    [backend.shipped_minus_completed() - self._ship_baseline],
                    dtype=np.int64,
                )
                total = np.zeros(1, np.int64)
                self.team.handle.allreduce(local, total, SUM)
                use_fast = total[0] == 0
            if use_fast:
                self._finish_fast()
            else:
                self._finish_termination_detection()

    def _finish_fast(self) -> None:
        """Flush everything this image issued, then a team barrier (§3.5)."""
        self.img.backend.quiet()
        self.team.handle.barrier()

    def _finish_termination_detection(self) -> None:
        """Yang's repeated-SUM-reduction termination detection (§3.5)."""
        backend = self.img.backend
        while True:
            backend.poll()  # run any shipped functions that have arrived
            backend.quiet()
            local = np.array([backend.shipped_minus_completed()], dtype=np.int64)
            total = np.zeros(1, np.int64)
            self.team.handle.allreduce(local, total, SUM)
            if total[0] == 0:
                break
        self.team.handle.barrier()
