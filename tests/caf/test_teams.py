"""Teams: split, collectives isolation, identity (§2.1)."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.mpi.constants import MAX, SUM

from tests.caf.conftest import handoffs_per_call


def test_team_world_identity(backend):
    def program(img):
        return img.this_image(), img.num_images()

    run = run_caf(program, 4, backend=backend)
    assert run.results == [(r, 4) for r in range(4)]


def test_split_by_parity(backend):
    def program(img):
        team = img.team_split(img.team_world, color=img.rank % 2)
        return img.this_image(team), img.num_images(team), team.members

    run = run_caf(program, 6, backend=backend)
    for rank, (idx, size, members) in enumerate(run.results):
        assert size == 3
        assert idx == rank // 2
        assert members == tuple(range(rank % 2, 6, 2))


def test_team_tables_are_built_once_per_team(backend):
    """Every image's TEAM_WORLD holds the same membership tuple, and so do
    the members of one split team: a table per image is O(P^2) host memory
    across the job (433 MB for an empty CAF-GASNet run at P = 2048)."""

    def program(img):
        team = img.team_split(img.team_world, color=img.rank % 2)
        return img.team_world.members, team.members

    run = run_caf(program, 6, backend=backend)
    world = run.results[0][0]
    assert world == tuple(range(6))
    assert all(members is world for members, _ in run.results)
    for color in (0, 1):
        split = [sub for rank, (_, sub) in enumerate(run.results) if rank % 2 == color]
        assert all(members is split[0] for members in split)


def test_split_with_key_reorders(backend):
    def program(img):
        team = img.team_split(img.team_world, color=0, key=-img.rank)
        return img.this_image(team)

    run = run_caf(program, 4, backend=backend)
    assert run.results == [3, 2, 1, 0]


def test_negative_color_gets_none(backend):
    def program(img):
        team = img.team_split(img.team_world, color=0 if img.rank < 2 else -1)
        return None if team is None else team.size

    run = run_caf(program, 4, backend=backend)
    assert run.results == [2, 2, None, None]


@pytest.mark.parametrize("nranks", [4, 8])
def test_team_collectives_isolated(backend, nranks):
    def program(img):
        team = img.team_split(img.team_world, color=img.rank % 2)
        send = np.array([float(img.rank)])
        recv = np.zeros(1)
        img.team_allreduce(send, recv, SUM, team=team)
        return recv[0]

    run = run_caf(program, nranks, backend=backend)
    evens = sum(r for r in range(nranks) if r % 2 == 0)
    odds = sum(r for r in range(nranks) if r % 2 == 1)
    for rank, got in enumerate(run.results):
        assert got == (evens if rank % 2 == 0 else odds)


def test_team_broadcast_and_reduce(backend):
    def program(img):
        buf = np.array([42.0]) if img.rank == 1 else np.zeros(1)
        img.team_broadcast(buf, root=1)
        send = buf * (img.rank + 1)
        recv = np.zeros(1)
        img.team_reduce(send, recv, MAX, root=0)
        return buf[0], (recv[0] if img.rank == 0 else None)

    run = run_caf(program, 4, backend=backend)
    assert all(b == 42.0 for b, _ in run.results)
    assert run.results[0][1] == 42.0 * 4


def test_team_alltoall(backend):
    def program(img):
        send = np.array([[img.rank * 10 + j] for j in range(img.nranks)], dtype=np.float64)
        recv = np.zeros_like(send)
        img.team_alltoall(send, recv)
        return recv[:, 0].tolist()

    run = run_caf(program, 4, backend=backend)
    for r in range(4):
        assert run.results[r] == [src * 10 + r for src in range(4)]


def test_team_allgather(backend):
    def program(img):
        send = np.array([float(img.rank)])
        recv = np.zeros((img.nranks, 1))
        img.team_allgather(send, recv)
        return recv[:, 0].tolist()

    run = run_caf(program, 5, backend=backend)
    for r in run.results:
        assert r == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_nested_splits(backend):
    def program(img):
        half = img.team_split(img.team_world, color=img.rank // 4)
        quarter = img.team_split(half, color=half.my_index // 2)
        return quarter.size, quarter.my_index

    run = run_caf(program, 8, backend=backend)
    assert all(size == 2 for size, _ in run.results)


def test_barrier_on_subteam_does_not_block_others(backend):
    def program(img):
        team = img.team_split(img.team_world, color=img.rank % 2)
        if img.rank % 2 == 0:
            img.barrier(team)
            return img.now
        img.compute(10.0)  # odd images busy; evens must not wait for them
        img.barrier(team)
        return img.now

    run = run_caf(program, 4, backend=backend)
    assert run.results[0] < 5.0 and run.results[2] < 5.0


def test_team_split_costs_two_handoffs(backend):
    """A split is one agreement round on the parent's handle (two barriers,
    one script) plus, on CAF-GASNet, the new team's base exchange, another
    round (CAF-MPI runs Comm.split's round instead): one park per round.
    2.75 on CAF-MPI and 3.5 on CAF-GASNet per call per image when the CAF
    layer parked once per barrier."""

    def program(img, n):
        for i in range(n):
            img.team_split(img.team_world, color=(img.rank + i) % 2)

    assert handoffs_per_call(program, 8, backend) <= 2
