"""A barrier round through ``Comm.barrier`` against the same round on bare
engine primitives, in microseconds of host time per round per rank.

The bare barrier (:func:`bare_barrier`) is a dissemination barrier written
straight on the engine: the same cost yields (the collective overhead, one
receive and one send per round), the same ``fabric.send`` of a zero-byte
message, the same ``call_in`` of the match delay at the receiver and the
same wake of the parked rank, so it executes the same events and messages
as ``Comm.barrier`` (``tests/mpi/test_round_floor.py`` checks that at
P = 8). What ``Comm.barrier`` costs above it is the MPI library's own
software path: checks, requests, matching queues and generator levels.

Each reading is the host time of a run of 40 barriers less that of a run of
10, per round per rank, so start-up and teardown cancel. The two sides
alternate (which side goes first alternates too), all in this process; the
table shows each side's median and the ratio of the medians::

    PYTHONPATH=src python tools/round_floor.py
    PYTHONPATH=src python tools/round_floor.py --procs 8 --reps 1
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from functools import partial

from repro.mpi.world import MpiWorld
from repro.sim import costs
from repro.sim.cluster import Cluster
from repro.sim.network import MachineSpec

SPEC = MachineSpec(name="test")
_ENVELOPE_BYTES = 48  # repro.mpi.p2p's wire size of a zero-byte message


class _BareRank:
    """One rank's side of the bare barrier: messages arrived but not yet
    received per source, the source its one posted receive waits for, and
    whether that receive has landed."""

    __slots__ = ("proc", "engine", "match_s", "unexpected", "posted", "landed", "parked")

    def __init__(self, ctx):
        self.proc, self.engine = ctx.proc, ctx.engine
        self.match_s = costs.cost(ctx, "mpi.match", 0)
        self.unexpected = [0] * ctx.nranks
        self.posted = -1
        self.landed = self.parked = False

    def post(self, src: int) -> None:
        if self.unexpected[src]:
            self.unexpected[src] -= 1
            self.engine.call_in(self.match_s, self.land)
        else:
            self.posted = src

    def deliver(self, src: int) -> None:
        if self.posted == src:
            self.posted = -1
            self.engine.call_in(self.match_s, self.land)
        else:
            self.unexpected[src] += 1

    def land(self) -> None:
        self.landed = True
        if self.parked:
            self.parked = False
            self.proc.wake()


def _bare_barrier_steps(ranks: list[_BareRank], rank: int, fabric, prices: tuple):
    overhead, recv_s, send_s = prices
    me = ranks[rank]
    size = len(ranks)
    yield overhead
    k = 1
    while k < size:
        dst, src = (rank + k) % size, (rank - k) % size
        yield recv_s
        me.post(src)
        yield send_s
        fabric.send(rank, dst, _ENVELOPE_BYTES, partial(ranks[dst].deliver, rank))
        while not me.landed:
            me.parked = True
            yield "bare-barrier"
        me.landed = False
        k <<= 1


def bare_barrier(ctx, nbarriers: int) -> None:
    """``nbarriers`` dissemination barriers on bare engine primitives."""
    ranks = ctx.cluster.shared("bare-barrier", lambda: [None] * ctx.nranks)
    ranks[ctx.rank] = _BareRank(ctx)
    kinds = ("mpi.coll_overhead", "mpi.recv", "mpi.send")
    prices = tuple(costs.cost(ctx, kind, 0) for kind in kinds)
    # Every rank's state exists before any message: the first cost yield
    # lets every fiber start before the first send.
    for _ in range(nbarriers):
        ctx.proc.run_script(_bare_barrier_steps(ranks, ctx.rank, ctx.fabric, prices))


def comm_barrier(ctx, nbarriers: int) -> None:
    """``nbarriers`` calls of ``Comm.barrier`` on COMM_WORLD."""
    comm = MpiWorld.get(ctx.cluster).init(ctx).COMM_WORLD
    for _ in range(nbarriers):
        comm.barrier()


SIDES = {"Comm.barrier": comm_barrier, "bare": bare_barrier}


def run(side: str, nprocs: int, nbarriers: int) -> tuple[float, Cluster]:
    """One run of ``side``: its host seconds and its finished cluster."""
    cluster = Cluster(nprocs, SPEC)
    t0 = time.perf_counter()
    cluster.run(SIDES[side], program_kwargs={"nbarriers": nbarriers})
    return time.perf_counter() - t0, cluster


def reading(side: str, nprocs: int) -> float:
    """Microseconds per round per rank: 40 barriers less 10."""
    rounds = (nprocs - 1).bit_length()
    t10, _ = run(side, nprocs, 10)
    t40, _ = run(side, nprocs, 40)
    return (t40 - t10) / (30 * rounds * nprocs) * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--procs", default="64,256", help="comma-separated P (default: 64,256)")
    ap.add_argument("--reps", type=int, default=5, help="readings per side (default: 5)")
    args = ap.parse_args()
    print(f"{'P':>5} {'Comm.barrier us':>16} {'bare us':>9} {'ratio':>6}")
    for nprocs in (int(p) for p in args.procs.split(",")):
        readings: dict[str, list[float]] = {side: [] for side in SIDES}
        for side in SIDES:
            reading(side, nprocs)  # warm-up: first-run set-up is not a round's
        for rep in range(args.reps):
            order = list(SIDES) if rep % 2 == 0 else list(SIDES)[::-1]
            for side in order:
                readings[side].append(reading(side, nprocs))
        lib, bare = (statistics.median(readings[side]) for side in SIDES)
        print(f"{nprocs:>5} {lib:>16.2f} {bare:>9.2f} {lib / bare:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
