"""ULFM-style failure handling: MpiProcFailedError, failed_ranks, shrink."""

import numpy as np
import pytest

from repro.mpi.world import MpiWorld
from repro.sim.cluster import Cluster
from repro.sim.faults import FaultPlan
from repro.sim.network import MachineSpec
from repro.util.errors import MpiError, MpiProcFailedError, MpiRevokedError

CRASH_AT = 2e-3
VICTIM = 3


def crash_run(program, nranks=4):
    cluster = Cluster(
        nranks,
        MachineSpec(name="test"),
        faults=FaultPlan(seed=1, crashes=[(VICTIM, CRASH_AT)]),
    )

    def wrapper(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        return program(mpi, ctx)

    return cluster, cluster.run(wrapper)


def test_operations_on_failed_rank_raise_proc_failed():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        comm.barrier()
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)
            return "unreachable"
        ctx.proc.sleep(3 * CRASH_AT)
        out = {"failed": comm.failed_ranks()}
        buf = np.zeros(4)
        for label, op in [
            ("send", lambda: comm.send(np.ones(4), VICTIM)),
            ("recv", lambda: comm.recv(buf, VICTIM)),
            ("isend", lambda: comm.isend(np.ones(4), VICTIM)),
        ]:
            with pytest.raises(MpiProcFailedError) as exc_info:
                op()
            out[label] = exc_info.value.failed_rank
        return out

    cluster, results = crash_run(program)
    assert cluster.failed_ranks == {VICTIM}
    for rank, out in enumerate(results):
        if rank == VICTIM:
            continue
        assert out["failed"] == [VICTIM]
        assert out["send"] == out["recv"] == out["isend"] == VICTIM


def test_proc_failed_is_an_mpi_error():
    assert issubclass(MpiProcFailedError, MpiError)
    exc = MpiProcFailedError(5)
    assert exc.failed_rank == 5
    assert "5" in str(exc)


def test_rma_on_failed_rank_raises_eagerly():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=4, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)
            return None
        ctx.proc.sleep(3 * CRASH_AT)
        with pytest.raises(MpiProcFailedError) as exc_info:
            win.put(np.ones(4), VICTIM)
        with pytest.raises(MpiProcFailedError):
            win.get(np.zeros(4), VICTIM)
        return exc_info.value.failed_rank

    _, results = crash_run(program)
    assert all(r == VICTIM for i, r in enumerate(results) if i != VICTIM)


def test_a_flush_over_a_dead_target_raises_once():
    """ULFM: my ops pending at a target that fails will never complete.
    The flush parked on them — FLUSH on that target (rank 0), FLUSH_ALL
    (rank 1) — fails at the crash with MPI_ERR_PROC_FAILED naming it and
    what to do, and so does a later FLUSH naming it. The loss is reported
    once: a later FLUSH_ALL over live targets completes."""
    big = 1 << 17  # 1 MiB, on the wire for ~330 us: the victim dies under it

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=big, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)
            return None
        if ctx.rank == 2:
            return None
        ctx.proc.sleep(CRASH_AT - 1e-4 - ctx.now)
        win.put(np.ones(big), VICTIM)
        with pytest.raises(MpiProcFailedError) as parked:
            if ctx.rank == 0:
                win.flush(VICTIM)
            else:
                win.flush_all()
        woke = ctx.now
        with pytest.raises(MpiProcFailedError):
            win.flush(VICTIM)
        win.put(np.ones(4), 2)
        win.flush_all()
        return parked.value.failed_rank, str(parked.value), woke

    _, results = crash_run(program)
    for failed_rank, message, woke in results[:2]:
        assert (failed_rank, woke) == (VICTIM, CRASH_AT)
        assert "world rank 3 failed before the op completed" in message, message
        assert message.endswith("or restart from a checkpoint"), message


def test_a_freed_window_leaves_no_failure_listener():
    """A window listens for failures only while it lives: allocating and
    freeing windows leaves the run's listener list as it was."""

    def program(mpi, ctx):
        mpi.COMM_WORLD.barrier()
        before = len(ctx.cluster.failure_listeners)
        for _ in range(3):
            mpi.win_allocate(shape=4, dtype=np.float64).free()
        return len(ctx.cluster.failure_listeners) - before

    cluster = Cluster(4, MachineSpec(name="test"))
    assert cluster.run(lambda ctx: program(MpiWorld.get(ctx.cluster).init(ctx), ctx)) == [0] * 4


def test_a_message_that_arrived_before_its_sender_died_is_received():
    """As in ULFM, a receive whose message already arrived completes after
    its sender died; only a receive that would wait on it fails."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == VICTIM:
            comm.send(np.full(4, 7.0), 0)
            ctx.proc.sleep(1.0)
            return None
        if ctx.rank != 0:
            return None
        ctx.proc.sleep(3 * CRASH_AT)
        buf = np.zeros(4)
        comm.recv(buf, VICTIM)
        with pytest.raises(MpiProcFailedError):
            comm.recv(np.zeros(4), VICTIM)
        return buf.tolist()

    cluster, results = crash_run(program)
    assert cluster.failed_ranks == {VICTIM}
    assert results[0] == [7.0] * 4


def test_a_rendezvous_whose_sender_died_is_refused_not_parked():
    """An RTS carries no data: a receive that matches one from a dead
    sender would wait for a payload that never moves, so it fails."""
    n = MachineSpec(name="test").mpi_eager_threshold // 8 + 1

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == VICTIM:
            comm.isend(np.full(n, 7.0), 0)
            ctx.proc.sleep(1.0)
            return None
        if ctx.rank != 0:
            return None
        ctx.proc.sleep(3 * CRASH_AT)
        with pytest.raises(MpiProcFailedError) as exc_info:
            comm.recv(np.zeros(n), VICTIM)
        return exc_info.value.failed_rank

    cluster, results = crash_run(program)
    assert cluster.failed_ranks == {VICTIM}
    assert results[0] == VICTIM


def test_pending_recv_from_dead_rank_fails_eagerly():
    """ULFM: a receive already blocked on the victim when it dies must
    complete with MPI_ERR_PROC_FAILED instead of hanging forever."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)  # never sends; dies at CRASH_AT
            return None
        if ctx.rank == 0:
            # Post the receive *before* the crash, then block in wait().
            with pytest.raises(MpiProcFailedError) as exc_info:
                comm.recv(np.zeros(4), source=VICTIM)
            return exc_info.value.failed_rank
        return "idle"

    cluster, results = crash_run(program)
    assert results[0] == VICTIM
    assert cluster.elapsed < 1.5  # woke at the crash, not at a watchdog


def test_a_rank_declared_failed_has_its_pending_receives_failed():
    """A live rank the run declares failed gets no more messages (senders
    refuse it), so a receive it already waits in completes with
    MPI_ERR_PROC_FAILED instead of parking until the deadlock report, and
    a receive it posts afterwards is refused at the call."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            ctx.proc.sleep(1e-4)
            ctx.cluster.declare_failed(2)
        elif ctx.rank == 2:
            out = []
            for _ in range(2):
                with pytest.raises(MpiProcFailedError) as exc_info:
                    comm.recv(np.zeros(4), source=1, tag=5)
                out.append((exc_info.value.failed_rank, str(exc_info.value), ctx.now))
            return out
        return None

    cluster, results = crash_run(program)
    (pending, woke_at), (posted, refused_at) = [(r[:2], r[2]) for r in results[2]]
    assert woke_at == 1e-4 and refused_at > woke_at
    assert pending == posted
    failed_rank, message = pending
    assert failed_rank == 2
    assert message.startswith("rank 2 (world rank 2) was declared failed"), message
    assert "its receive (src=1, tag=5) would never complete" in message, message
    assert message.endswith("end this rank's program instead of communicating"), message


def test_crash_inside_a_scripted_barrier_unwinds_the_script():
    """The victim dies parked inside a barrier that runs as one script: its
    fiber unwinds, the script is closed (its ``finally`` runs, as a blocking
    call's would), and the survivors — one of them parked in the same
    barrier, its script driven by other fibers — see the ULFM errors."""
    unwound = []

    def guarded_barrier(comm, ctx):
        try:
            yield from comm._barrier_steps()
        finally:
            unwound.append((ctx.rank, ctx.now))

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == VICTIM:
            ctx.proc.run_script(guarded_barrier(comm, ctx))  # nobody else has entered
            return "unreachable"
        ctx.proc.sleep(CRASH_AT / 2 if ctx.rank == 0 else 3 * CRASH_AT)
        try:
            comm.barrier()
        except (MpiProcFailedError, MpiRevokedError) as exc:
            comm.revoke()
            return type(exc).__name__
        return "passed"

    cluster, results = crash_run(program)
    assert cluster.failed_ranks == {VICTIM}
    assert unwound == [(VICTIM, CRASH_AT)]
    # Rank 0 entered before the crash and got past the victim's round: it is
    # parked on rank 2, which fails on the dead rank and revokes.
    assert results == ["MpiRevokedError", "MpiRevokedError", "MpiProcFailedError", None]


def test_revoke_interrupts_receives_from_live_peers():
    """A rank blocked on a *live* peer (which itself stalled on the dead
    one) is freed when any survivor revokes the communicator."""

    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)
            return None
        if ctx.rank == 0:
            # Blocked on rank 1 — alive, but it will never send.
            with pytest.raises(MpiRevokedError):
                comm.recv(np.zeros(4), source=1)
            return "revoked-out"
        if ctx.rank == 1:
            # Detects the failure directly, then poisons the comm.
            with pytest.raises(MpiProcFailedError):
                comm.recv(np.zeros(4), source=VICTIM)
            comm.revoke()
            with pytest.raises(MpiRevokedError):
                comm.send(np.ones(4), 0)
            return "detected"
        return "idle"

    _, results = crash_run(program)
    assert results[0] == "revoked-out"
    assert results[1] == "detected"


def test_shrink_after_revoke_gives_a_clean_comm():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)
            return None
        ctx.proc.sleep(3 * CRASH_AT)
        comm.revoke()
        small = comm.shrink()
        assert not small.state.revoked
        send = np.array([1.0])
        recv = np.zeros(1)
        small.allreduce(send, recv)
        return recv[0]

    _, results = crash_run(program)
    assert all(r == 3.0 for i, r in enumerate(results) if i != VICTIM)


def test_shrink_refuses_a_rank_declared_failed():
    """A live rank the run has declared failed (as a transport give-up
    does) is not a survivor: its shrink() names it and what to do."""

    def program(mpi, ctx):
        if ctx.rank == 1:
            ctx.cluster.declare_failed(1)
            mpi.COMM_WORLD.shrink()

    with pytest.raises(MpiError, match="rank 1 called shrink") as info:
        crash_run(program)
    assert str(info.value).endswith(
        "end this rank's program instead of recovering it"
    ), str(info.value)


def test_a_late_survivor_gets_the_first_survivors_comm():
    """Rank 0 shrinks after rank 3's crash; rank 1 crashes next, and rank 2
    shrinks only then. The first shrink built the successor for every
    survivor, so both get the same communicator, rank 1 in its group."""
    crashes = [(VICTIM, CRASH_AT), (1, 4 * CRASH_AT)]
    cluster = Cluster(4, MachineSpec(name="test"), faults=FaultPlan(seed=1, crashes=crashes))

    def wrapper(ctx):
        comm = MpiWorld.get(ctx.cluster).init(ctx).COMM_WORLD
        comm.barrier()
        if ctx.rank in (1, VICTIM):
            ctx.proc.sleep(1.0)
            return None
        ctx.proc.sleep((3 if ctx.rank == 0 else 6) * CRASH_AT)
        small = comm.shrink()
        return small.state.context_id, small.state.group

    results = cluster.run(wrapper)
    assert cluster.failed_ranks == {1, VICTIM}
    assert results[0] == results[2]
    assert results[0][1] == (0, 1, 2)


def test_shrink_yields_a_working_survivor_comm():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        comm.barrier()
        if ctx.rank == VICTIM:
            ctx.proc.sleep(1.0)
            return None
        ctx.proc.sleep(3 * CRASH_AT)
        small = comm.shrink()
        assert small.size == comm.size - 1
        assert small.failed_ranks() == []
        # The shrunken communicator is fully functional: a collective
        # over the survivors completes and computes the right value.
        send = np.array([float(comm.rank)])
        recv = np.zeros(1)
        small.allreduce(send, recv)
        return (small.rank, recv[0])

    _, results = crash_run(program)
    survivors = [r for i, r in enumerate(results) if i != VICTIM]
    expected_sum = sum(i for i in range(4) if i != VICTIM)
    assert sorted(rank for rank, _ in survivors) == [0, 1, 2]
    assert all(total == expected_sum for _, total in survivors)
