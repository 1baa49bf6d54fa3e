"""Derived-datatype-style strided RMA (put_runs / get_runs)."""

import numpy as np
import pytest

from repro.util.errors import MpiError

from tests.mpi.conftest import mpi_run


def test_put_runs_scatters(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=12, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            win.put_runs(np.array([1.0, 2.0, 3.0, 4.0]), 1, [(0, 2), (6, 2)])
            win.flush(1)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local.tolist()

    _, results = mpi_run(program, 2)
    assert results[1] == [1.0, 2.0, 0, 0, 0, 0, 3.0, 4.0, 0, 0, 0, 0]


def test_get_runs_gathers(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=10, dtype=np.float64)
        win.local[:] = np.arange(10) + 10 * ctx.rank
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        out = np.zeros(4)
        win.get_runs(out, (ctx.rank + 1) % ctx.nranks, [(1, 2), (7, 2)]).wait()
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return out.tolist()

    _, results = mpi_run(program, 2)
    assert results[0] == [11.0, 12.0, 17.0, 18.0]
    assert results[1] == [1.0, 2.0, 7.0, 8.0]


def test_put_runs_single_message(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=64, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        before = ctx.cluster.fabric.messages_sent
        if ctx.rank == 0:
            win.put_runs(np.ones(16), 1, [(i * 4, 2) for i in range(8)])
            win.flush(1)
        mpi.COMM_WORLD.barrier()
        after = ctx.cluster.fabric.messages_sent
        win.unlock_all()
        return after - before

    _, results = mpi_run(program, 2)
    # One data message plus the barrier's messages — nowhere near 8.
    assert results[0] <= 4


def test_put_runs_size_mismatch_rejected(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        win.put_runs(np.ones(3), 0, [(0, 2)])

    with pytest.raises(MpiError, match="runs cover"):
        mpi_run(program, 1)


def test_put_runs_out_of_bounds_rejected(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        win.put_runs(np.ones(2), 0, [(7, 2)])

    with pytest.raises(MpiError, match="outside target"):
        mpi_run(program, 1)


def test_runs_respect_flush_semantics(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            win.put_runs(np.full(4, 5.0), 1, [(0, 2), (4, 2)])
            win.flush(1)  # must block until the runs committed remotely
            assert win.state.buffers[1][0] == 5.0
            assert win.state.buffers[1][4] == 5.0
        mpi.COMM_WORLD.barrier()
        win.unlock_all()

    mpi_run(program, 2)


def test_put_runs_non_uniform_lengths(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=16, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            # Runs of different lengths: 1, 3 and 2 elements.
            win.put_runs(np.arange(1.0, 7.0), 1, [(0, 1), (5, 3), (12, 2)])
            win.flush(1)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local.tolist()

    _, results = mpi_run(program, 2)
    expect = [0.0] * 16
    expect[0] = 1.0
    expect[5:8] = [2.0, 3.0, 4.0]
    expect[12:14] = [5.0, 6.0]
    assert results[1] == expect


def test_get_runs_rendezvous_sized_payload(run):
    """Strided gets whose gathered payload exceeds the eager threshold
    still complete via the request (the rendezvous-path datatype case)."""

    def program(mpi, ctx):
        n = 4096
        win = mpi.win_allocate(shape=n, dtype=np.float64)
        win.local[:] = np.arange(n) + n * ctx.rank
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        half = n // 2
        out = np.zeros(half)
        runs = [(2 * i, 1) for i in range(half)]  # every even element
        assert half * 8 > ctx.spec.mpi_eager_threshold
        win.get_runs(out, (ctx.rank + 1) % ctx.nranks, runs).wait()
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return out[:4].tolist()

    _, results = mpi_run(program, 2)
    assert results[0] == [4096.0, 4098.0, 4100.0, 4102.0]
    assert results[1] == [0.0, 2.0, 4.0, 6.0]


def test_interleaved_runs_from_two_origins(run):
    """Two ranks scatter into complementary strided runs of a third."""

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            win.put_runs(np.full(4, 1.0), 2, [(0, 2), (4, 2)])
            win.flush(2)
        elif ctx.rank == 1:
            win.put_runs(np.full(4, 2.0), 2, [(2, 2), (6, 2)])
            win.flush(2)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local.tolist()

    _, results = mpi_run(program, 3)
    assert results[2] == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_get_runs_refuses_a_buffer_of_another_dtype(run):
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        win.get_runs(np.zeros(4, np.float32), 0, [(0, 2), (4, 2)])

    with pytest.raises(MpiError, match="dtype float32 != window dtype float64"):
        mpi_run(program, 1)
