"""Request helpers: wait_any, wait_all, test_all, statuses."""

import numpy as np
import pytest

from repro.mpi import test_all as req_test_all
from repro.mpi import wait_all, wait_any
from repro.mpi.status import Status

from tests.mpi.conftest import mpi_run


def test_wait_any_returns_earliest_completion(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            fast = np.zeros(1)
            slow = np.zeros(1)
            reqs = [comm.irecv(slow, source=1, tag=1), comm.irecv(fast, source=1, tag=2)]
            idx, status = wait_any(reqs)
            assert idx == 1 and status.tag == 2
            wait_all(reqs)
            return slow[0], fast[0]
        comm.send(np.array([2.0]), dest=0, tag=2)
        ctx.compute(1.0)
        comm.send(np.array([1.0]), dest=0, tag=1)

    _, results = mpi_run(program, 2)
    assert results[0] == (1.0, 2.0)


def test_wait_any_leaves_no_callbacks_behind(run):
    """100 wake-ups over the same still-pending request: each call merges its
    requests into one event once and takes the subscription back, instead of
    leaving one more callback on the pending request per wake-up."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            pending = comm.irecv(np.zeros(1), source=1, tag=999)
            for i in range(100):
                idx, status = wait_any([pending, comm.irecv(np.zeros(1), source=1, tag=i)])
                assert idx == 1 and status.tag == i
                assert len(pending._event._callbacks) <= 1
            pending.wait()
            return len(pending._event._callbacks)
        for i in range(100):
            ctx.compute(1.0)
            comm.send(np.array([float(i)]), dest=0, tag=i)
        comm.send(np.zeros(1), dest=0, tag=999)

    _, results = mpi_run(program, 2)
    assert results[0] == 0


def test_wait_any_empty_rejected(run):
    with pytest.raises(ValueError, match="empty"):
        def program(mpi, ctx):
            wait_any([])

        mpi_run(program, 1)


def test_test_all_and_statuses(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            bufs = [np.zeros(1) for _ in range(3)]
            reqs = [comm.irecv(b, source=1, tag=t) for t, b in enumerate(bufs)]
            assert not req_test_all(reqs)
            statuses = wait_all(reqs)
            assert req_test_all(reqs)
            assert [s.tag for s in statuses] == [0, 1, 2]
            assert all(s.source == 1 for s in statuses)
            return [b[0] for b in bufs]
        for t in range(3):
            comm.send(np.array([float(t)]), dest=0, tag=t)

    _, results = mpi_run(program, 2)
    assert results[0] == [0.0, 1.0, 2.0]


def test_status_get_count():
    st = Status(source=1, tag=2, count=32)
    assert st.get_count(8) == 4
    assert st.get_count() == 32


def test_request_test_transitions(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            buf = np.zeros(1)
            req = comm.irecv(buf, source=1)
            ok, st = req.test()
            assert not ok and st is None
            req.wait()
            ok, st = req.test()
            assert ok and st.count == 8
        else:
            ctx.compute(0.5)
            comm.send(np.array([1.0]), dest=0)

    mpi_run(program, 2)


def test_probe_then_sized_recv_loop(run):
    """Server pattern: probe for unknown-size messages, allocate, recv."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            sizes = []
            for _ in range(ctx.nranks - 1):
                st = comm.probe()
                buf = np.zeros(st.get_count(8))
                comm.recv(buf, source=st.source, tag=st.tag)
                sizes.append(buf.size)
            return sorted(sizes)
        comm.send(np.ones(ctx.rank * 3), dest=0, tag=ctx.rank)

    _, results = mpi_run(program, 4)
    assert results[0] == [3, 6, 9]
