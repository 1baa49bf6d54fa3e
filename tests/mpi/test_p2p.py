"""Point-to-point semantics: matching, wildcards, protocols, ordering."""

import re

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, p2p
from repro.util.errors import DeadlockError, MpiError, MpiProcFailedError, MpiRevokedError

from tests.mpi.conftest import mpi_run


def test_blocking_send_recv_roundtrip(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.arange(10, dtype=np.int64), dest=1, tag=5)
            return None
        buf = np.empty(10, np.int64)
        status = comm.recv(buf, source=0, tag=5)
        assert status.source == 0 and status.tag == 5
        assert status.count == 80
        return buf.tolist()

    _, results = run(program, 2)
    assert results[1] == list(range(10))


def test_send_before_recv_parks_in_unexpected_queue(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.array([7.5]), dest=1, tag=1)
        else:
            ctx.compute(1.0)  # receiver is late: message waits unexpected
            buf = np.zeros(1)
            comm.recv(buf, source=0, tag=1)
            return buf[0]

    _, results = run(program, 2)
    assert results[1] == 7.5


def test_recv_before_send_blocks_until_arrival(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            ctx.compute(2.0)
            comm.send(np.array([1]), dest=1)
        else:
            buf = np.zeros(1, np.int64)
            comm.recv(buf, source=0)
            assert ctx.now >= 2.0
            return int(buf[0])

    _, results = run(program, 2)
    assert results[1] == 1


def test_any_source_any_tag(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            got = []
            buf = np.zeros(1, np.int64)
            for _ in range(2):
                st = comm.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                got.append((st.source, st.tag, int(buf[0])))
            return sorted(got)
        comm.send(np.array([ctx.rank * 100]), dest=0, tag=ctx.rank)
        return None

    _, results = run(program, 3)
    assert results[0] == [(1, 1, 100), (2, 2, 200)]


def test_tag_selectivity_leaves_other_messages(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.array([1]), dest=1, tag=10)
            comm.send(np.array([2]), dest=1, tag=20)
        else:
            ctx.compute(1.0)  # let both arrive
            buf = np.zeros(1, np.int64)
            comm.recv(buf, source=0, tag=20)
            assert buf[0] == 2
            comm.recv(buf, source=0, tag=10)
            assert buf[0] == 1

    run(program, 2)


def test_message_order_preserved_same_src_tag(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            for i in range(8):
                comm.send(np.array([i]), dest=1, tag=3)
        else:
            got = []
            buf = np.zeros(1, np.int64)
            for _ in range(8):
                comm.recv(buf, source=0, tag=3)
                got.append(int(buf[0]))
            return got

    _, results = run(program, 2)
    assert results[1] == list(range(8))


def test_rendezvous_large_message(run):
    n = 1 << 16  # 512 KB of float64 > eager threshold

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.arange(n, dtype=np.float64), dest=1)
        else:
            buf = np.zeros(n)
            comm.recv(buf, source=0)
            return float(buf.sum())

    _, results = run(program, 2)
    assert results[1] == pytest.approx(n * (n - 1) / 2)


def test_rendezvous_sender_blocks_until_receiver_posts(run):
    n = 1 << 16

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.ones(n), dest=1)
            return ctx.now
        ctx.compute(5.0)
        buf = np.zeros(n)
        comm.recv(buf, source=0)
        return ctx.now

    _, results = run(program, 2)
    assert results[0] > 5.0  # blocking send couldn't finish before recv posted


def test_eager_send_completes_locally_before_recv(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.ones(4), dest=1)
            t_send_done = ctx.now
            assert t_send_done < 1.0  # did not wait for the late receiver
        else:
            ctx.compute(5.0)
            buf = np.zeros(4)
            comm.recv(buf, source=0)

    run(program, 2)


def test_isend_irecv_overlap(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        other = 1 - ctx.rank
        recv = np.zeros(8)
        rreq = comm.irecv(recv, source=other)
        sreq = comm.isend(np.full(8, float(ctx.rank)), dest=other)
        sreq.wait()
        rreq.wait()
        return float(recv[0])

    _, results = run(program, 2)
    assert results == [1.0, 0.0]


def test_isend_buffer_snapshot_at_call(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            buf = np.array([42.0])
            req = comm.isend(buf, dest=1)
            buf[0] = -1.0  # must not affect the message
            req.wait()
        else:
            buf = np.zeros(1)
            comm.recv(buf, source=0)
            return buf[0]

    _, results = run(program, 2)
    assert results[1] == 42.0


def test_rendezvous_sender_reuse_after_wait(run):
    """Regression: the rendezvous payload rides as a live view of the send
    buffer, so the send request must not complete until the payload has been
    copied into the posted receive buffer — a sender that scribbles on its
    buffer the moment wait() returns must not corrupt the message."""
    n = 1 << 16  # > eager threshold: rendezvous protocol

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            buf = np.arange(n, dtype=np.float64)
            req = comm.isend(buf, dest=1)
            req.wait()
            buf[:] = -1.0  # legal reuse: the send completed
        else:
            out = np.zeros(n)
            comm.recv(out, source=0)
            return float(out.sum())

    _, results = run(program, 2)
    assert results[1] == pytest.approx(n * (n - 1) / 2)


def test_sendrecv_exchange_ring(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        right = (ctx.rank + 1) % ctx.nranks
        left = (ctx.rank - 1) % ctx.nranks
        recv = np.zeros(1, np.int64)
        comm.sendrecv(np.array([ctx.rank]), right, recv, left)
        return int(recv[0])

    _, results = run(program, 5)
    assert results == [4, 0, 1, 2, 3]


def test_probe_reports_size_without_consuming(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.arange(5, dtype=np.int32), dest=1, tag=9)
        else:
            st = comm.probe(source=0, tag=9)
            assert st.count == 20
            buf = np.zeros(st.count // 4, np.int32)
            comm.recv(buf, source=0, tag=9)
            return buf.tolist()

    _, results = run(program, 2)
    assert results[1] == [0, 1, 2, 3, 4]


def test_iprobe_nonblocking(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 1:
            ok, _ = comm.iprobe(source=0)
            assert not ok
            ctx.compute(1.0)
            ok, st = comm.iprobe(source=0)
            assert ok and st.count == 8
            buf = np.zeros(1)
            comm.recv(buf, source=0)
        else:
            comm.send(np.array([3.0]), dest=1)

    run(program, 2)


def test_truncation_raises(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.zeros(10), dest=1)
        else:
            buf = np.zeros(1)
            comm.recv(buf, source=0)

    with pytest.raises(MpiError, match="truncation"):
        mpi_run(program, 2)


def test_unmatched_recv_deadlocks_with_diagnostic(run):
    def program(mpi, ctx):
        if ctx.rank == 0:
            buf = np.zeros(1)
            mpi.COMM_WORLD.recv(buf, source=1, tag=7)

    with pytest.raises(DeadlockError):
        mpi_run(program, 2)


def test_self_send_recv(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        req = comm.isend(np.array([ctx.rank + 0.5]), dest=ctx.rank, tag=2)
        buf = np.zeros(1)
        comm.recv(buf, source=ctx.rank, tag=2)
        req.wait()
        return buf[0]

    _, results = run(program, 3)
    assert results == [0.5, 1.5, 2.5]


def test_bad_peer_rank_raises(run):
    def program(mpi, ctx):
        mpi.COMM_WORLD.send(np.zeros(1), dest=99)

    with pytest.raises(MpiError, match="out of range"):
        mpi_run(program, 2)


#: ``(call, peer, what happened first, error, message)``: on 2 ranks, a peer
#: must lie in [0, 2), be alive, and the communicator must not be revoked.
#: ``source=-1`` is ANY_SOURCE, so a negative receive peer is -2.
_GUARDS = [
    ("isend", -1, None, MpiError, r"peer rank -1 out of range \[0, 2\)"),
    ("isend", 2, None, MpiError, r"peer rank 2 out of range \[0, 2\)"),
    ("irecv", -2, None, MpiError, r"peer rank -2 out of range \[0, 2\)"),
    ("irecv", 2, None, MpiError, r"peer rank 2 out of range \[0, 2\)"),
    ("isend", 1, "declare_failed", MpiProcFailedError, "peer 1 .world rank 1. has failed"),
    ("irecv", 1, "declare_failed", MpiProcFailedError, "peer 1 .world rank 1. has failed"),
    ("isend", 1, "revoke", MpiRevokedError, r"context \d+\) has been revoked"),
    ("irecv", 1, "revoke", MpiRevokedError, r"context \d+\) has been revoked"),
]


@pytest.mark.parametrize("context", ["user", "coll"])
@pytest.mark.parametrize(
    "call, peer, first, error, message", _GUARDS,
    ids=[f"{c}-{p}-{f or 'range'}" for c, p, f, _, _ in _GUARDS],
)
def test_p2p_guards_refuse_at_the_call(run, call, peer, first, error, message, context):
    """Every entry check of ``isend`` / ``irecv`` raises its own message, on
    the user context and on the collective one. A negative peer is refused,
    not wrapped around the group."""

    def program(mpi, ctx):
        if ctx.rank == 1:
            return None
        comm = mpi.COMM_WORLD
        if first == "declare_failed":
            ctx.cluster.declare_failed(1)
        elif first == "revoke":
            comm.revoke()
        matching = comm.state.user if context == "user" else comm._coll_matching
        try:
            getattr(p2p, call)(comm, matching, None, peer, 0)
        except MpiError as exc:
            return exc

    _, results = run(program, 2)
    assert type(results[0]) is error
    assert re.search(message, str(results[0])), str(results[0])


def test_noncontiguous_buffer_rejected(run):
    def program(mpi, ctx):
        arr = np.zeros((4, 4))[:, 0]  # strided view
        mpi.COMM_WORLD.send(arr, dest=0)

    with pytest.raises(MpiError, match="contiguous"):
        mpi_run(program, 1)


def test_double_init_rejected(run):
    def program(mpi, ctx):
        from repro.mpi.world import MpiWorld

        MpiWorld.get(ctx.cluster).init(ctx)

    with pytest.raises(MpiError, match="twice"):
        mpi_run(program, 1)


def test_mixed_protocol_ordering_preserved(run):
    """A small eager message sent after a big rendezvous one must not
    overtake it when both match the same receive pattern."""
    n = 1 << 16

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            r1 = comm.isend(np.full(n, 1.0), dest=1, tag=4)
            r2 = comm.isend(np.array([2.0]), dest=1, tag=4)
            r1.wait()
            r2.wait()
        else:
            big = np.zeros(n)
            small = np.zeros(1)
            st1 = comm.recv(big, source=0, tag=4)
            st2 = comm.recv(small, source=0, tag=4)
            assert st1.count == n * 8
            assert st2.count == 8
            return big[0], small[0]

    _, results = run(program, 2)
    assert results[1] == (1.0, 2.0)


# -- zero-byte messages: None end to end --------------------------------------


def test_none_buffers_are_a_zero_byte_message(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(None, dest=1, tag=3)
            return None
        return comm.recv(None, source=0, tag=3)

    _, results = run(program, 2)
    assert (results[1].source, results[1].tag, results[1].count) == (0, 3, 0)


def test_payload_into_a_none_receive_is_truncation(run):
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.zeros(2), dest=1)
        else:
            comm.recv(None, source=0)

    with pytest.raises(MpiError, match="truncation: 16 bytes arrived for a 0-byte receive"):
        mpi_run(program, 2)


def test_zero_byte_message_under_rendezvous_for_everything(run):
    """A threshold below zero sends even an empty message by RTS/CTS: there
    is still no payload to land."""
    from repro.sim.network import MachineSpec

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(None, dest=1)
            return None
        return comm.recv(None, source=0).count

    _, results = mpi_run(program, 2, spec=MachineSpec(name="t", mpi_eager_threshold=-1))
    assert results[1] == 0


def test_deadlock_report_names_the_receive(run):
    """Request names are formatted when a report reads them, and read as
    they always did."""

    def program(mpi, ctx):
        if ctx.rank == 1:
            mpi.COMM_WORLD.recv(np.zeros(1), source=0, tag=5)

    with pytest.raises(DeadlockError) as exc_info:
        mpi_run(program, 2)
    assert exc_info.value.blocked == {1: "wait(req:irecv(src=0,tag=5))"}


# -- argument errors surface at the call ---------------------------------------


@pytest.mark.parametrize("call", ["recv", "irecv"])
def test_read_only_receive_buffer_rejected_at_the_call(run, call):
    """Not as a bare numpy ValueError from the delivery callback, which has
    no rank and no call site."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.ones(4), dest=1)
            return None
        buf = np.zeros(4)
        buf.flags.writeable = False
        try:
            getattr(comm, call)(buf, source=0)
        except MpiError as exc:
            comm.recv(np.zeros(4), source=0)  # the message is still there
            return str(exc)

    _, results = run(program, 2)
    assert "read-only" in results[1]


@pytest.mark.parametrize("call", ["send", "isend"])
def test_negative_send_tag_rejected_at_the_call(run, call):
    """ANY_TAG is a receive-only wildcard; a send carrying it used to be
    accepted and end as a deadlock report."""

    def program(mpi, ctx):
        getattr(mpi.COMM_WORLD, call)(np.zeros(1), dest=0, tag=ANY_TAG)

    with pytest.raises(MpiError, match="tag must be >= 0, got -1"):
        mpi_run(program, 1)
