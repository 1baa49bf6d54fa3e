"""Hand-rolled GASNet collectives: correctness and cost shape."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.gasnet.collectives import TeamExchange
from repro.gasnet.segment import SegmentAllocator
from repro.mpi.constants import SUM
from repro.sim.network import MachineSpec

from tests.gasnet.conftest import gasnet_run


def with_team(program, nranks, **kw):
    def wrapper(g, ctx):
        allocator = SegmentAllocator(g.segment.nbytes)
        team = TeamExchange(
            g, team_id=0, members=tuple(range(ctx.nranks)),
            my_index=ctx.rank, allocator=allocator,
        )
        return program(team, g, ctx)

    return gasnet_run(wrapper, nranks, **kw)


@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 7, 8])
def test_barrier_synchronizes(nranks):
    def program(team, g, ctx):
        ctx.compute(float(ctx.rank))
        team.barrier()
        return ctx.now

    _, results = with_team(program, nranks)
    assert min(results) >= nranks - 1


@pytest.mark.parametrize("nranks", [2, 3, 4, 8])
@pytest.mark.parametrize("root", [0, 1])
def test_broadcast(nranks, root):
    def program(team, g, ctx):
        buf = np.arange(6, dtype=np.float64) if ctx.rank == root else np.zeros(6)
        team.bcast(buf, root=root)
        return buf.tolist()

    _, results = with_team(program, nranks)
    for r in results:
        assert r == list(range(6))


@pytest.mark.parametrize("nranks", [2, 3, 4, 8])
def test_reduce_sum(nranks):
    def program(team, g, ctx):
        send = np.full(3, float(ctx.rank + 1))
        recv = np.zeros(3)
        team.reduce(send, recv, SUM, root=0)
        return recv.tolist() if ctx.rank == 0 else None

    _, results = with_team(program, nranks)
    total = nranks * (nranks + 1) / 2
    assert results[0] == [total] * 3


@pytest.mark.parametrize("nranks", [2, 4, 5])
def test_allreduce(nranks):
    def program(team, g, ctx):
        send = np.array([float(ctx.rank)])
        recv = np.zeros(1)
        team.allreduce(send, recv, SUM)
        return recv[0]

    _, results = with_team(program, nranks)
    expected = sum(range(nranks))
    assert all(r == expected for r in results)


@pytest.mark.parametrize("nranks", [2, 3, 4, 8])
def test_allgather(nranks):
    def program(team, g, ctx):
        send = np.array([ctx.rank * 1.0, ctx.rank + 0.5])
        recv = np.zeros((ctx.nranks, 2))
        team.allgather(send, recv)
        return recv.tolist()

    _, results = with_team(program, nranks)
    expected = [[r * 1.0, r + 0.5] for r in range(nranks)]
    for r in results:
        assert r == expected


@pytest.mark.parametrize("nranks", [2, 3, 4, 8])
def test_alltoall_transpose(nranks):
    def program(team, g, ctx):
        send = np.array(
            [[ctx.rank * 100 + j, ctx.rank] for j in range(ctx.nranks)],
            dtype=np.float64,
        )
        recv = np.zeros_like(send)
        team.alltoall(send, recv)
        return recv[:, 0].tolist()

    _, results = with_team(program, nranks)
    for r in range(nranks):
        assert results[r] == [src * 100 + r for src in range(nranks)]


def test_consecutive_collectives_reuse_scratch():
    def program(team, g, ctx):
        for round_i in range(3):
            send = np.full((ctx.nranks, 4), float(ctx.rank + round_i))
            recv = np.zeros_like(send)
            team.alltoall(send, recv)
            assert recv[:, 0].tolist() == [
                float(s + round_i) for s in range(ctx.nranks)
            ]
        return team._arena_top

    _, results = with_team(program, 4)
    assert all(u == 0 for u in results)  # scratch fully released


def test_two_teams_do_not_interfere():
    def program(g, ctx):
        allocator = SegmentAllocator(g.segment.nbytes)
        whole = TeamExchange(
            g, 0, tuple(range(ctx.nranks)), ctx.rank, allocator
        )
        color = ctx.rank % 2
        members = tuple(r for r in range(ctx.nranks) if r % 2 == color)
        sub = TeamExchange(g, 1 + color, members, ctx.rank // 2, allocator)
        send = np.array([1.0])
        recv = np.zeros(1)
        sub.allreduce(send, recv, SUM)
        whole.barrier()
        return recv[0]

    _, results = gasnet_run(program, 8)
    assert all(r == 4.0 for r in results)


def test_naive_alltoall_slower_than_mpi_pairwise_at_scale():
    """The Figure 8 mechanism: hand-rolled all-to-all loses to MPI_ALLTOALL."""
    from repro.mpi.world import MpiWorld
    from repro.sim.cluster import Cluster

    spec = MachineSpec(name="t", ranks_per_node=1, gasnet_srq_threshold=8)
    nranks, chunk = 16, 1 << 11

    def gasnet_prog(team, g, ctx):
        send = np.zeros((ctx.nranks, chunk))
        recv = np.zeros_like(send)
        t0 = ctx.now
        for _ in range(3):
            team.alltoall(send, recv)
        return ctx.now - t0

    def mpi_prog(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        send = np.zeros((ctx.nranks, chunk))
        recv = np.zeros_like(send)
        mpi.COMM_WORLD.barrier()
        t0 = ctx.now
        for _ in range(3):
            mpi.COMM_WORLD.alltoall(send, recv)
        return ctx.now - t0

    _, gasnet_times = with_team(gasnet_prog, nranks, spec=spec)
    cluster = Cluster(nranks, spec, seed=1)
    mpi_times = cluster.run(mpi_prog)
    assert max(gasnet_times) > max(mpi_times) * 1.3


@pytest.mark.parametrize("signal", ["put", "am"])
def test_alltoall_costs_one_handoff_per_rank(signal):
    """A hand-rolled all-to-all is one script: 2(P-1) puts, as many signals
    and a drain round park each member once, not once per cost and poll
    (26.6 parks per call per rank at P=8 when they did; ``Engine.handoffs``
    is exact on any host)."""
    spec = MachineSpec(name="t", gasnet_coll_signal=signal)
    nranks, calls = 8, 10

    def handoffs(n):
        def program(team, g, ctx):
            send = np.full((ctx.nranks, 4), float(ctx.rank))
            recv = np.zeros_like(send)
            for _ in range(n):
                team.alltoall(send, recv)
            assert recv[:, 0].tolist() == [float(r) for r in range(ctx.nranks)]

        cluster, _ = with_team(program, nranks, spec=spec)
        return cluster.engine.handoffs

    assert (handoffs(1 + calls) - handoffs(1)) / (calls * nranks) <= 2


def test_a_teams_exchanges_share_their_peer_tables():
    """The peer-base tables are built once per team, for the symmetric
    world team and for a split team's agreed bases alike: no image keeps
    its own P-long copy."""

    def program(img):
        team = img.team_split(img.team_world, color=img.rank % 2)
        return img.team_world.handle, team.handle

    run = run_caf(program, 6, backend="gasnet")
    world = [w for w, _ in run.results]
    split = [[s for rank, (_, s) in enumerate(run.results) if rank % 2 == color] for color in (0, 1)]
    for team in (world, *split):
        for table in ("peer_arena_bases", "peer_flag_bases", "peer_drain_bases"):
            assert all(getattr(x, table) is getattr(team[0], table) for x in team), table
        assert len(team[0].peer_flag_bases) == team[0].size
