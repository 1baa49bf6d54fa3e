"""GASNet segments: the memory of one, and the symmetric bump allocator
over it.

CAF coarrays over GASNet live at segment offsets. Because every image
performs the same (collective) allocations in the same order with the same
sizes, offsets agree across images — the symmetric-heap property remote
puts/gets rely on. Nothing is ever returned to it: a hand-rolled
collective's scratch comes out of its team's arena (one allocation here,
then ``TeamExchange._arena_alloc`` / ``_arena_release`` in LIFO order).
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.util.errors import GasnetError


def make_segment(nbytes: int) -> np.ndarray:
    """One rank's segment: ``nbytes`` of zero-filled, writable memory that
    costs the host what the run touches, 4 KiB at a time.

    The pages come straight from the kernel, not from numpy's allocator:
    ``np.zeros`` advises ``MADV_HUGEPAGE`` on anything of 4 MiB or more, so
    on a host whose transparent-hugepage mode is ``madvise`` (or ``always``)
    the first touch of a coarray, an arena or a flag word zeroed a whole
    2 MiB page — most of a small run's ``sys`` time and resident set
    (docs/architecture.md, "What a segment costs the host"). The array
    keeps the mapping alive.
    """
    region = mmap.mmap(-1, nbytes)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        region.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(region, np.uint8)


def _align_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


class SegmentAllocator:
    def __init__(self, capacity: int):
        if capacity <= 0:
            raise GasnetError(f"segment capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._top = 0

    def alloc(self, nbytes: int, align: int = 16) -> int:
        """Reserve ``nbytes`` and return the segment offset."""
        if nbytes < 0:
            raise GasnetError(f"negative allocation {nbytes}")
        offset = _align_up(self._top, align)
        if offset + nbytes > self.capacity:
            raise GasnetError(
                f"segment exhausted: need {nbytes} at {offset}, capacity {self.capacity}"
            )
        self._top = offset + nbytes
        return offset

    @property
    def free(self) -> int:
        return self.capacity - self._top
