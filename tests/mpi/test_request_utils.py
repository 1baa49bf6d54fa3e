"""Request helpers: wait_all, test, statuses."""

import numpy as np

from repro.mpi import wait_all

from tests.mpi.conftest import mpi_run


def test_wait_all_returns_statuses_in_request_order(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            bufs = [np.zeros(1) for _ in range(3)]
            reqs = [comm.irecv(b, source=1, tag=t) for t, b in enumerate(bufs)]
            assert not all(req.completed for req in reqs)
            statuses = wait_all(reqs)
            assert all(req.completed for req in reqs)
            assert [s.tag for s in statuses] == [0, 1, 2]
            assert all(s.source == 1 for s in statuses)
            return [b[0] for b in bufs]
        for t in range(3):
            comm.send(np.array([float(t)]), dest=0, tag=t)

    _, results = mpi_run(program, 2)
    assert results[0] == [0.0, 1.0, 2.0]


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
                buf = np.zeros(st.count // 8)
                comm.recv(buf, source=st.source, tag=st.tag)
                sizes.append(buf.size)
            return sorted(sizes)
        comm.send(np.ones(ctx.rank * 3), dest=0, tag=ctx.rank)

    _, results = mpi_run(program, 4)
    assert results[0] == [3, 6, 9]
