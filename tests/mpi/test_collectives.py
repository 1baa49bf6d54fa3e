"""Collective correctness against NumPy references, at several sizes."""

import gc
import heapq
import sys
import threading
import types

import numpy as np
import pytest

import repro.sim.engine
from repro.mpi import MAX, MIN, PROD, SUM
from repro.util.errors import DeadlockError

from tests.mpi.conftest import mpi_run

SIZES = [1, 2, 3, 4, 5, 8, 13, 16]


@pytest.mark.parametrize("nranks", SIZES)
def test_barrier_synchronizes_clocks(nranks):
    def program(mpi, ctx):
        ctx.compute(float(ctx.rank))  # ranks arrive at different times
        mpi.COMM_WORLD.barrier()
        return ctx.now

    _, results = mpi_run(program, nranks)
    # Nobody leaves the barrier before the slowest rank arrived.
    assert min(results) >= nranks - 1


@pytest.mark.parametrize("nranks", SIZES)
def test_bcast_from_various_roots(nranks):
    def program(mpi, ctx, root):
        buf = (
            np.arange(7, dtype=np.float64) * 3
            if ctx.rank == root
            else np.zeros(7)
        )
        mpi.COMM_WORLD.bcast(buf, root=root)
        return buf.tolist()

    for root in {0, nranks - 1, nranks // 2}:
        _, results = mpi_run(program, nranks, root=root)
        expected = (np.arange(7) * 3.0).tolist()
        assert all(r == expected for r in results)


@pytest.mark.parametrize("nranks", SIZES)
def test_reduce_sum(nranks):
    def program(mpi, ctx):
        send = np.full(5, float(ctx.rank + 1))
        recv = np.zeros(5)
        mpi.COMM_WORLD.reduce(send, recv, SUM, root=0)
        return recv[0] if ctx.rank == 0 else None

    _, results = mpi_run(program, nranks)
    assert results[0] == pytest.approx(nranks * (nranks + 1) / 2)


@pytest.mark.parametrize("nranks", SIZES)
@pytest.mark.parametrize("op,npop", [(SUM, np.sum), (MAX, np.max), (MIN, np.min), (PROD, np.prod)])
def test_allreduce_matches_numpy(nranks, op, npop):
    def program(mpi, ctx):
        send = np.array([float(ctx.rank + 1), float(ctx.rank % 3)])
        recv = np.zeros(2)
        mpi.COMM_WORLD.allreduce(send, recv, op)
        return recv.tolist()

    _, results = mpi_run(program, nranks)
    contributions = np.array(
        [[r + 1.0, float(r % 3)] for r in range(nranks)]
    )
    expected = npop(contributions, axis=0).tolist()
    for r in results:
        assert r == pytest.approx(expected)


@pytest.mark.parametrize("nranks", SIZES)
def test_alltoall_is_global_transpose(nranks):
    def program(mpi, ctx):
        send = np.array(
            [[ctx.rank * 100 + peer] for peer in range(ctx.nranks)], dtype=np.int64
        )
        recv = np.zeros_like(send)
        mpi.COMM_WORLD.alltoall(send, recv)
        return recv[:, 0].tolist()

    _, results = mpi_run(program, nranks)
    for r in range(nranks):
        assert results[r] == [src * 100 + r for src in range(nranks)]


@pytest.mark.parametrize("nranks", SIZES)
def test_allgather_collects_all_blocks(nranks):
    def program(mpi, ctx):
        send = np.array([ctx.rank * 2.0, ctx.rank * 2.0 + 1])
        recv = np.zeros((ctx.nranks, 2))
        mpi.COMM_WORLD.allgather(send, recv)
        return recv.tolist()

    _, results = mpi_run(program, nranks)
    expected = [[r * 2.0, r * 2.0 + 1] for r in range(nranks)]
    for r in results:
        assert r == expected


def test_consecutive_collectives_do_not_cross_match():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        a = np.array([1.0]) if ctx.rank == 0 else np.zeros(1)
        b = np.array([2.0]) if ctx.rank == 0 else np.zeros(1)
        comm.bcast(a, root=0)
        comm.bcast(b, root=0)
        return a[0], b[0]

    _, results = mpi_run(program, 4)
    assert all(r == (1.0, 2.0) for r in results)


def test_collectives_do_not_consume_user_messages():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.array([9.0]), dest=1, tag=1)
        comm.barrier()
        if ctx.rank == 1:
            buf = np.zeros(1)
            comm.recv(buf, source=0, tag=1)
            return buf[0]

    _, results = mpi_run(program, 2)
    assert results[1] == 9.0


def test_large_alltoall_uses_rendezvous():
    n = 1 << 14  # per-pair chunk: 128 KB > eager threshold

    def program(mpi, ctx):
        send = np.full((ctx.nranks, n), float(ctx.rank))
        recv = np.zeros_like(send)
        mpi.COMM_WORLD.alltoall(send, recv)
        return float(recv[:, 0].sum())

    _, results = mpi_run(program, 4)
    assert all(r == pytest.approx(0 + 1 + 2 + 3) for r in results)


def test_allreduce_shape_mismatch_raises():
    def program(mpi, ctx):
        mpi.COMM_WORLD.allreduce(np.zeros(3), np.zeros(4))

    with pytest.raises(Exception, match="differ"):
        mpi_run(program, 2)


# ---------------------------------------------------------------------------
# Bruck short-message alltoall (the >= 32-rank small-block algorithm)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nranks", [32, 33, 64])
def test_bruck_alltoall_is_global_transpose(nranks):
    """Above the Bruck thresholds the log-round algorithm must still place
    every block exactly — including non-power-of-two sizes."""

    def program(mpi, ctx):
        send = np.array(
            [[ctx.rank * 1000 + peer] for peer in range(ctx.nranks)],
            dtype=np.int64,
        )
        recv = np.zeros_like(send)
        mpi.COMM_WORLD.alltoall(send, recv)
        return recv[:, 0].tolist()

    _, results = mpi_run(program, nranks)
    for r in range(nranks):
        assert results[r] == [src * 1000 + r for src in range(nranks)]


def test_bruck_sends_log_rounds_not_pairwise():
    """At 64 ranks with 8-byte blocks, each rank sends ceil(log2 64) = 6
    aggregated messages instead of 63 pairwise ones. The fabric message
    count is the observable."""
    import math

    def program(mpi, ctx, n):
        send = np.zeros((ctx.nranks, n), dtype=np.int64)
        recv = np.zeros_like(send)
        base = ctx.fabric.messages_sent
        mpi.COMM_WORLD.alltoall(send, recv)
        return ctx.fabric.messages_sent - base

    size = 64
    # Small blocks: Bruck (every rank participates in log2(P) rounds).
    cluster, _ = mpi_run(program, size, n=1)
    small_msgs = cluster.fabric.messages_sent
    # Large blocks: pairwise (P-1 sends per rank).
    cluster, _ = mpi_run(program, size, n=1024)
    large_msgs = cluster.fabric.messages_sent
    assert small_msgs <= size * (math.ceil(math.log2(size)) + 2)
    assert large_msgs >= size * (size - 1)
    assert small_msgs * 5 < large_msgs


def test_bruck_and_pairwise_agree_numerically():
    """Force both algorithms on the same data (block size straddles the
    threshold) and compare the received matrices element-for-element."""

    def program(mpi, ctx, n):
        rng = np.random.default_rng(100 + ctx.rank)
        send = rng.integers(0, 1 << 30, size=(ctx.nranks, n)).astype(np.int64)
        recv = np.zeros_like(send)
        mpi.COMM_WORLD.alltoall(send, recv)
        return send, recv

    size = 40
    _, small = mpi_run(program, size, n=4)    # 32 B blocks: Bruck
    _, large = mpi_run(program, size, n=512)  # 4 KB blocks: pairwise
    for results in (small, large):
        sends = [s for s, _ in results]
        for dst in range(size):
            _, recv = results[dst]
            expect = np.stack([sends[src][dst] for src in range(size)])
            np.testing.assert_array_equal(recv, expect)


# ---------------------------------------------------------------------------
# A collective is one script: its caller parks once (docs/architecture.md,
# "Scripts")
# ---------------------------------------------------------------------------


def _handoffs_per_call(program, nranks, calls=10):
    """Extra ``Engine.handoffs`` of ``calls`` more calls, per call per rank
    (start-up and the first call are in both runs). Exact on any host."""
    few, _ = mpi_run(program, nranks, n=1)
    many, _ = mpi_run(program, nranks, n=1 + calls)
    return (many.engine.handoffs - few.engine.handoffs) / (calls * nranks)


def test_barrier_costs_one_handoff_per_rank():
    """16 ranks: 4 dissemination rounds of recv-cost, send-cost, wait — 13
    parks per rank per barrier when every cost parked the fiber."""

    def program(mpi, ctx, n):
        for _ in range(n):
            mpi.COMM_WORLD.barrier()

    assert _handoffs_per_call(program, 16) <= 2


def test_barrier_loop_triggers_no_cyclic_collection():
    """64 ranks, 10 barriers: every rank's parked barrier script, requests
    and envelopes are alive at once, so the collector's allocation count
    crosses its threshold again and again — 31 collections on the fiber
    threads (29 of generation 0, 2 of generation 1, counted from a fresh
    ``gc.collect()``) while ``Engine.run`` still left the collector on.
    It is paused while the fibers run now. A count, so exact on any host."""
    collections = []

    def count(phase, info):
        if phase == "start" and threading.current_thread().name.startswith("sim-"):
            collections.append(info["generation"])

    def program(mpi, ctx):
        for _ in range(10):
            mpi.COMM_WORLD.barrier()

    gc.collect()
    gc.callbacks.append(count)
    try:
        mpi_run(program, 64)
    finally:
        gc.callbacks.remove(count)
    assert collections == []


def test_alltoall_costs_one_handoff_per_rank():
    def program(mpi, ctx, n):
        send = np.full((ctx.nranks, 4), float(ctx.rank))
        recv = np.empty_like(send)
        for _ in range(n):
            mpi.COMM_WORLD.alltoall(send, recv)

    assert _handoffs_per_call(program, 8) <= 2  # 23 with a park per cost


def test_rank_skipping_the_barrier_deadlocks_with_the_receive_named():
    """The blocked call sites are what they were when each wait parked its
    own fiber: the script yields the same reason strings."""

    def program(mpi, ctx):
        if ctx.rank != 3:
            mpi.COMM_WORLD.barrier()

    with pytest.raises(DeadlockError) as exc_info:
        mpi_run(program, 4)
    assert exc_info.value.blocked == {
        0: "wait(req:irecv(src=3,tag=0))",
        1: "wait(req:irecv(src=3,tag=0))",
        2: "wait(req:irecv(src=0,tag=0))",
    }
    assert str(exc_info.value) == (
        "deadlock at t=4.016e-06: all live images are blocked ("
        "rank 0: wait(req:irecv(src=3,tag=0)) (last progress t=2e-06); "
        "rank 1: wait(req:irecv(src=3,tag=0)) (last progress t=3.708e-06); "
        "rank 2: wait(req:irecv(src=0,tag=0)) (last progress t=3.708e-06))"
    )


def test_barrier_makes_no_numpy_call():
    """A barrier round is a zero-byte message: nothing to view, reshape or
    copy. Counted, so exact on any host (680 when every round built and
    copied an empty array)."""
    numpy_calls = []

    def profile(frame, event, arg):
        if event == "c_call" and (
            (getattr(arg, "__module__", None) or "").startswith("numpy")
            or isinstance(getattr(arg, "__self__", None), np.ndarray)
        ):
            numpy_calls.append(arg)

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        comm.barrier()  # warm-up: lazy set-up is not the barrier's
        # Whichever fiber is dispatching runs a rank's barrier script, so
        # every fiber counts, and keeps counting until its thread ends.
        sys.setprofile(profile)
        np.empty(0)  # the counter does see numpy: exactly this call per rank
        for _ in range(10):
            comm.barrier()

    mpi_run(program, 4)
    assert [call.__name__ for call in numpy_calls] == ["empty"] * 4


#: Python-level calls (generator resumes included) one dissemination-barrier
#: round costs one rank: 78.9 when a request wrapped its event, a posted
#: receive was a record of its own, and every guard was a call; 49.9 while
#: a message was an envelope beside its send request, isend/irecv were
#: generators of their own and every request built its Status; 41.9 since.
BARRIER_ROUND_CALLS = 42


def test_barrier_round_host_work_budget(monkeypatch):
    """The host work of one zero-byte message, counted, so exact on any
    host: the calls of 20 barriers on 4 ranks less those of 10, per round
    per rank. Work added to every message fails here with its number."""
    monkeypatch.delenv("REPRO_SIM_DIGEST", raising=False)  # a digest adds calls

    def calls(nbarriers):
        count = [0]

        def profile(frame, event, arg):
            if event == "call":
                count[0] += 1

        def program(mpi, ctx):
            comm = mpi.COMM_WORLD
            comm.barrier()  # warm-up: lazy set-up is not the barrier's
            sys.setprofile(profile)  # on every fiber: any of them dispatches
            for _ in range(nbarriers):
                comm.barrier()

        try:
            mpi_run(program, 4)
        finally:
            sys.setprofile(None)
        return count[0]

    rounds = 10 * 2 * 4  # 10 more barriers, log2(4) rounds each, 4 ranks
    per_round = (calls(20) - calls(10)) / rounds
    assert per_round <= BARRIER_ROUND_CALLS, (
        f"a barrier round costs {per_round} Python calls per rank, over the "
        f"budget of {BARRIER_ROUND_CALLS}: what does every message do now?"
    )


#: Engine heap pushes one dissemination-barrier round costs one rank at
#: P = 64: 4.17 when every future event took its own heap slot; 0.22 since
#: lockstep ranks' events at one time share one (0.05 at P = 256).
BARRIER_ROUND_HEAP_PUSHES = 0.25


def test_barrier_round_heap_pushes(monkeypatch):
    """The engine queue's work per message, counted through the engine's
    ``heapq``, so exact on any host: the pushes of 20 barriers on 64 ranks
    less those of 10, per round per rank."""
    count = [0]

    def heappush(heap, entry):
        count[0] += 1
        heapq.heappush(heap, entry)

    shim = types.SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify
    )
    monkeypatch.setattr(repro.sim.engine, "heapq", shim)

    def pushes(nbarriers):
        def program(mpi, ctx):
            comm = mpi.COMM_WORLD
            comm.barrier()  # warm-up: lazy set-up is not the barrier's
            for _ in range(nbarriers):
                comm.barrier()

        count[0] = 0
        mpi_run(program, 64)
        return count[0]

    rounds = 10 * 6 * 64  # 10 more barriers, log2(64) rounds each, 64 ranks
    per_round = (pushes(20) - pushes(10)) / rounds
    assert per_round <= BARRIER_ROUND_HEAP_PUSHES, (
        f"a barrier round pushes {per_round} heap entries per rank, over "
        f"{BARRIER_ROUND_HEAP_PUSHES}: do lockstep events still share a slot?"
    )
