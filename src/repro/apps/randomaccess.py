"""HPCC RandomAccess (GUPS) on the CAF 2.0 API — §4.1 of the paper.

Distributed table of 2^t entries per image; every image generates random
64-bit update values and applies ``table[v mod T] ^= v``. Updates are
routed with the CAF 2.0 **hypercube software routing** algorithm: in
dimension ``d`` each image splits its in-flight updates by bit ``d`` of
the owning image and bulk-writes the "other half" into its dimension-``d``
partner's landing coarray, then posts an event. The primitives this
stresses — bulk ``coarray_write`` and ``event_notify``/``event_wait`` —
are exactly those the paper's Figure 4 decomposes.

One landing zone per dimension with a consume-acknowledgement event
prevents a fast partner from overwriting a landing buffer before it is
drained. The table is a set of logical partitions, one per image in the
paper's run: one image's share of the routing is a :class:`RaRouter`,
which :func:`run_randomaccess` drives and :mod:`repro.resilience.apps`
runs under a recovery loop, where a survivor hosts a dead image's
partitions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.caf.image import Image
from repro.util.errors import CafError

if TYPE_CHECKING:
    from repro.caf.teams import Team


@dataclass
class RandomAccessResult:
    nranks: int
    table_bits_per_image: int
    updates_per_image: int
    elapsed: float
    gups: float
    table_checksum: int


def generate_updates(seed: int, rank: int, count: int, total_bits: int) -> np.ndarray:
    """Deterministic per-image update stream (stands in for the HPCC LCG)."""
    rng = np.random.default_rng((seed, rank))
    return rng.integers(0, 1 << total_bits, size=count, dtype=np.uint64)


def apply_updates(table: np.ndarray, updates: np.ndarray, mask: int) -> None:
    """XOR-apply updates whose owning entries live in this (local) table."""
    np.bitwise_xor.at(table, (updates & np.uint64(mask)).astype(np.int64), updates)


def reference_tables(
    seed: int, nranks: int, table_bits_per_image: int, updates_per_image: int
) -> list[np.ndarray]:
    """Serial reference: what every image's table must hold at the end."""
    local_size = 1 << table_bits_per_image
    total_bits = table_bits_per_image + int(np.log2(nranks)) + 8
    tables = [np.zeros(local_size, np.uint64) for _ in range(nranks)]
    total = local_size * nranks
    for rank in range(nranks):
        updates = generate_updates(seed, rank, updates_per_image, total_bits)
        idx = (updates % np.uint64(total)).astype(np.int64)
        owner = idx // local_size
        local = idx % local_size
        for r in range(nranks):
            sel = owner == r
            np.bitwise_xor.at(tables[r], local[sel], updates[sel])
    return tables


class RaRouter:
    """One image's share of the hypercube routing, over logical partitions.

    The table is ``len(owners)`` partitions of ``2**table_bits_per_image``
    entries. ``owners[p]`` is the team index of the image hosting partition
    ``p``; ``None`` is the paper's layout, image ``p`` hosting partition
    ``p``. Partition ``p`` routes as image ``p`` of the paper's loop: in
    dimension ``d`` it splits its in-flight updates by bit ``d`` of their
    owning partition and hands the other half to partner ``p ^ (1 << d)``,
    by a bulk coarray write and an event, or directly when the partner is
    hosted here too. Its stream is ``generate_updates(seed, p, ...)``.

    This image hosts ``parts``, in partition order; ``parts[i]`` is row
    ``i``. Its table is ``tables[i]`` (the caller's array, e.g. a
    checkpointed coarray's view, or fresh zeros), its landing row is
    ``[i * (capacity + 1), (i + 1) * (capacity + 1))`` of each dimension's
    coarray, and its event slots are ``i * dims + d``. Coarrays are
    symmetric, so every image allocates as many rows as the busiest host
    needs. ``armed`` starts past batch 0: one ``drained`` credit per slot
    is already posted (a restarted run gets them back from its checkpoint).
    """

    __slots__ = ("parts", "owners", "dims", "img", "me", "timeout", "table_bits", "total",
                 "tables", "capacity", "land", "arrive", "drained", "streams", "bounds",
                 "_round")

    def __init__(
        self, img: Image, team: Team, *, table_bits_per_image: int, updates_per_image: int,
        batches: int, seed: int, owners: Sequence[int] | None = None,
        tables: np.ndarray | None = None, timeout: float | None = None, armed: bool = False,
    ):
        me = team.my_index
        if owners is None:
            owners, self.parts, rows = range(team.size), [me], 1
        else:
            self.parts = [p for p in range(len(owners)) if owners[p] == me]
            rows = max(owners.count(host) for host in owners)
        self.owners = owners
        nparts = len(owners)
        if nparts & (nparts - 1):
            raise CafError(
                "RandomAccess hypercube routing needs a power of two partitions, "
                f"got {nparts}: run on a power-of-two number of images"
            )
        self.dims = dims = int(np.log2(nparts)) if nparts > 1 else 0
        self.img, self.me, self.timeout = img, me, timeout
        self.table_bits = table_bits_per_image
        self.total = nparts << table_bits_per_image
        if tables is None:
            tables = np.zeros((len(self.parts), 1 << table_bits_per_image), np.uint64)
        self.tables = tables

        # One landing zone per hypercube dimension: the dimension-d partner is
        # the same partition every batch, so a drained-acknowledgement event
        # from it is what makes reusing the row in the next batch safe.
        # Capacity is generous: routing at most moves every in-flight update
        # each round.
        self.capacity = 4 * max(updates_per_image // batches, 1) + 8
        self.land = [
            img.allocate_coarray(rows * (self.capacity + 1), np.uint64, team=team)
            for _ in range(max(dims, 1))
        ]
        self.arrive = img.allocate_events(rows * max(dims, 1), team=team)  # data has landed
        self.drained = img.allocate_events(rows * max(dims, 1), team=team)  # row free again
        total_bits = table_bits_per_image + dims + 8
        self.streams = [generate_updates(seed, p, updates_per_image, total_bits) for p in self.parts]
        self.bounds = np.linspace(0, updates_per_image, batches + 1, dtype=int)
        self._round = 1 if armed else 0

    def _locate(self, p: int) -> tuple[int, int]:
        """The team index of partition ``p``'s host and ``p``'s row there:
        how many lower partitions that host holds."""
        host = self.owners[p]
        return host, self.owners[:p].count(host)

    def batch(self, b: int) -> None:
        """Route batch ``b`` of every hosted stream to its owning partitions
        and XOR-apply it there."""
        in_flight = [s[self.bounds[b] : self.bounds[b + 1]] for s in self.streams]
        for d in range(self.dims):
            bit = np.uint64(1 << d)
            handed = [None] * len(self.parts)  # by receiving row, from a partner hosted here
            for i in range(len(self.parts)):
                host, row = self._locate(self.parts[i] ^ (1 << d))
                owner = (in_flight[i] % np.uint64(self.total)) >> np.uint64(self.table_bits)
                stay = (owner & bit) == (np.uint64(self.parts[i]) & bit)
                outgoing = in_flight[i][~stay]
                in_flight[i] = in_flight[i][stay]
                if outgoing.size > self.capacity:
                    raise CafError(
                        f"landing capacity {self.capacity} exceeded ({outgoing.size}); "
                        "increase batches"
                    )
                if host == self.me:
                    handed[row] = outgoing
                    continue
                # The partner must have drained what this row wrote there last batch.
                if self._round > 0:
                    self.drained.wait(slot=i * self.dims + d, timeout=self.timeout)
                payload = np.empty(outgoing.size + 1, np.uint64)
                payload[0] = outgoing.size
                payload[1:] = outgoing
                self.land[d].write(host, payload, offset=row * (self.capacity + 1))
                self.arrive.notify(host, slot=row * self.dims + d)
            for i in range(len(self.parts)):
                host, row = self._locate(self.parts[i] ^ (1 << d))
                if host == self.me:
                    incoming = handed[i]
                else:
                    self.arrive.wait(slot=i * self.dims + d, timeout=self.timeout)
                    base = i * (self.capacity + 1)
                    n_in = int(self.land[d].local[base])
                    incoming = self.land[d].local[base + 1 : base + 1 + n_in].copy()
                    self.drained.notify(host, slot=row * self.dims + d)
                in_flight[i] = np.concatenate([in_flight[i], incoming])
        with self.img.profile("computation"):
            for i in range(len(self.parts)):
                apply_updates(self.tables[i], in_flight[i], (1 << self.table_bits) - 1)
                self.img.compute(flops=max(in_flight[i].size, 1))
        self._round += 1


def run_randomaccess(
    img: Image,
    *,
    table_bits_per_image: int = 10,
    updates_per_image: int = 2048,
    batches: int = 8,
    seed: int = 42,
) -> RandomAccessResult:
    """One image's SPMD body: :class:`RaRouter` with one partition per
    image. Returns this image's result record.

    The per-image table ends up in
    ``img.cluster.shared('ra-tables', dict)[rank]`` for validation.
    """
    router = RaRouter(
        img, img.team_world, table_bits_per_image=table_bits_per_image,
        updates_per_image=updates_per_image, batches=batches, seed=seed,
    )
    table = router.tables[0]
    img.cluster.shared("ra-tables", dict)[img.rank] = table

    img.sync_all()
    t0 = img.now
    for b in range(batches):
        router.batch(b)
    # Drain the last round's acknowledgements so nothing is lost.
    img.sync_all()
    elapsed = img.now - t0
    total_updates = updates_per_image * img.nranks
    gups = total_updates / elapsed / 1e9 if elapsed > 0 else float("inf")
    return RandomAccessResult(
        nranks=img.nranks,
        table_bits_per_image=table_bits_per_image,
        updates_per_image=updates_per_image,
        elapsed=elapsed,
        gups=gups,
        table_checksum=int(np.bitwise_xor.reduce(table)),
    )
