"""Runtime-resident memory accounting (Figure 1).

Each communication runtime registers its modeled allocations (base
footprint, per-peer eager buffers, segment metadata, window buffers...)
against a per-rank ledger, so an application that initializes both MPI and
GASNet shows the duplicated footprint the paper measures.
"""

from __future__ import annotations

from repro.util.errors import SimulationError

MB = 1024 * 1024


class MemoryMeter:
    def __init__(self, nranks: int):
        self.nranks = nranks
        self._ledgers: list[dict[str, float]] = [{} for _ in range(nranks)]

    def alloc(self, rank: int, label: str, nbytes: float) -> None:
        if nbytes < 0:
            raise SimulationError(f"negative allocation {nbytes} for {label!r}")
        ledger = self._ledgers[rank]
        ledger[label] = ledger.get(label, 0.0) + nbytes

    def free(self, rank: int, label: str, nbytes: float) -> None:
        ledger = self._ledgers[rank]
        have = ledger.get(label, 0.0)
        if nbytes > have + 1e-9:
            raise SimulationError(
                f"freeing {nbytes} of {label!r} on rank {rank} but only {have} allocated"
            )
        remaining = have - nbytes
        if remaining <= 1e-9:
            ledger.pop(label, None)
        else:
            ledger[label] = remaining

    def rank_bytes(self, rank: int, prefix: str = "") -> float:
        return sum(
            v for k, v in self._ledgers[rank].items() if k.startswith(prefix)
        )

    def rank_mb(self, rank: int, prefix: str = "") -> float:
        return self.rank_bytes(rank, prefix) / MB
