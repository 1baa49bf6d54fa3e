"""RMA semantics: windows, one-sided ops, atomics, flush behaviour."""

import numpy as np
import pytest

from repro.mpi import NO_OP, REPLACE, SUM
from repro.mpi.world import MpiWorld
from repro.sim.cluster import Cluster
from repro.sim.network import MachineSpec
from repro.util.errors import MpiError

from tests.mpi.conftest import mpi_run


def test_win_allocate_symmetric_and_zeroed():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=16, dtype=np.float64)
        assert win.local.size == 16
        assert (win.local == 0).all()
        return win.win_id

    _, results = mpi_run(program, 4)
    assert len(set(results)) == 1  # one shared window


def test_put_visible_after_flush_and_barrier():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=4, dtype=np.float64)
        win.lock_all()
        target = (ctx.rank + 1) % ctx.nranks
        win.put(np.full(4, float(ctx.rank)), target)
        win.flush(target)
        mpi.COMM_WORLD.barrier()
        left = (ctx.rank - 1) % ctx.nranks
        assert (win.local == float(left)).all()
        win.unlock_all()
        return True

    _, results = mpi_run(program, 4)
    assert all(results)


def test_put_with_offset():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.int64)
        win.lock_all()
        if ctx.rank == 0:
            win.put(np.array([5, 6], dtype=np.int64), target=1, offset=3)
            win.flush(1)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local.tolist()

    _, results = mpi_run(program, 2)
    assert results[1] == [0, 0, 0, 5, 6, 0, 0, 0]


def test_get_reads_remote_data():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=4, dtype=np.float64)
        win.local[:] = ctx.rank * 10.0
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        buf = np.zeros(4)
        src = (ctx.rank + 1) % ctx.nranks
        win.rget(buf, src).wait()
        win.unlock_all()
        return buf[0]

    _, results = mpi_run(program, 3)
    assert results == [10.0, 20.0, 0.0]


def test_rput_request_is_local_completion_only():
    """The request completes locally; remote visibility still needs a flush."""

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        if ctx.rank == 0:
            req = win.rput(np.array([3.0]), target=1)
            req.wait()
            win.flush(1)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local[0]

    _, results = mpi_run(program, 2)
    assert results[1] == 3.0


def test_flush_waits_for_remote_completion():
    """After flush(target), the data must be in target memory (no barrier)."""

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        if ctx.rank == 0:
            win.put(np.array([1.0]), target=1)
            win.flush(1)
            t_flush = ctx.now
            # Tell rank 1 (two-sided) that the put is complete.
            mpi.COMM_WORLD.send(np.array([t_flush]), dest=1)
        else:
            buf = np.zeros(1)
            mpi.COMM_WORLD.recv(buf, source=0)
            assert win.local[0] == 1.0
        win.unlock_all()

    mpi_run(program, 2)


def test_flush_local_buffers_rendezvous_put_payload():
    """MPI_WIN_FLUSH_LOCAL grants buffer-reuse rights while the op may still
    be in flight; a rendezvous PUT payload riding as a live view must be
    privatized by the library so reuse cannot corrupt the transfer."""
    n = 1 << 14  # 128 KB of float64: above the eager threshold

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=n, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            buf = np.arange(n, dtype=np.float64)
            win.put(buf, target=1)
            win.flush_local(1)
            buf[:] = -1.0  # legal: flush_local granted local completion
            win.flush(1)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return float(win.local.sum())

    _, results = mpi_run(program, 2)
    assert results[1] == pytest.approx(n * (n - 1) / 2)


def test_flush_local_all_buffers_rendezvous_put_payloads():
    n = 1 << 14

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=n, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            buf = np.full(n, 7.0)
            win.put(buf, target=1)
            win.flush_local_all()
            buf[:] = 0.0
            win.flush_all()
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return float(win.local[0]), float(win.local[-1])

    _, results = mpi_run(program, 2)
    assert results[1] == (7.0, 7.0)


@pytest.mark.parametrize("sanitize", [False, True])
def test_fence_epochs_order_puts_and_local_reads(sanitize):
    """MPI_WIN_FENCE (active target): a put in one fence epoch is visible,
    at the origin's side and the target's, in the next — with no passive
    lock anywhere, which the sanitizer accepts on a fenced window."""

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        win = mpi.win_allocate(shape=4, dtype=np.float64)
        right, left = (ctx.rank + 1) % ctx.nranks, (ctx.rank - 1) % ctx.nranks
        win.fence()
        win.put(np.full(4, float(ctx.rank)), right)
        win.fence()
        mine = win.local.tolist()
        theirs = np.zeros(4)
        win.get(theirs, right)
        win.fence()
        return mine == [float(left)] * 4 and theirs.tolist() == [float(ctx.rank)] * 4

    cluster = Cluster(4, MachineSpec(name="test"), seed=1, sanitize=sanitize)
    assert cluster.run(program) == [True] * 4
    if sanitize:
        assert cluster.sanitizer.report.clean, cluster.sanitizer.report.to_text()


def test_accumulate_sum_from_all_ranks():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        win.accumulate(np.array([float(ctx.rank + 1)]), target=0, op=SUM)
        win.flush(0)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local[0]

    _, results = mpi_run(program, 4)
    assert results[0] == pytest.approx(1 + 2 + 3 + 4)


def test_accumulate_replace():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=2, dtype=np.float64)
        win.lock_all()
        if ctx.rank == 1:
            win.accumulate(np.array([7.0, 8.0]), target=0, op=REPLACE)
            win.flush(0)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return win.local.tolist()

    _, results = mpi_run(program, 2)
    assert results[0] == [7.0, 8.0]


def test_fetch_and_op_returns_old_value():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.int64)
        if ctx.rank == 0:
            win.local[0] = 100
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        old = np.zeros(1, np.int64)
        if ctx.rank == 1:
            win.fetch_and_op(np.array([5], dtype=np.int64), old, target=0, op=SUM)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        if ctx.rank == 1:
            return int(old[0])
        return int(win.local[0])

    _, results = mpi_run(program, 2)
    assert results == [105, 100]


def test_fetch_and_op_noop_is_pure_fetch():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.local[0] = ctx.rank * 2.0
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        old = np.zeros(1)
        win.fetch_and_op(np.zeros(1), old, target=(ctx.rank + 1) % ctx.nranks, op=NO_OP)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return old[0], win.local[0]

    _, results = mpi_run(program, 2)
    assert results[0] == (2.0, 0.0)
    assert results[1] == (0.0, 2.0)


def test_compare_and_swap_success_and_failure():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.int64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        result = np.zeros(1, np.int64)
        if ctx.rank == 1:
            old = win.compare_and_swap(0, 42, result, target=0)
            assert old == 0  # matched: swap happened
            old = win.compare_and_swap(0, 99, result, target=0)
            assert old == 42  # mismatch: no swap
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return int(win.local[0])

    _, results = mpi_run(program, 2)
    assert results[0] == 42


def test_atomic_increments_are_not_lost():
    """Every rank increments rank 0's counter N times; total must be exact."""
    n = 10

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.int64)
        win.lock_all()
        one = np.ones(1, np.int64)
        old = np.zeros(1, np.int64)
        for _ in range(n):
            win.fetch_and_op(one, old, target=0, op=SUM)
        win.flush(0)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return int(win.local[0])

    _, results = mpi_run(program, 5)
    assert results[0] == 5 * n


def test_flush_all_charges_linear_cost_when_dirty():
    spec = MachineSpec(name="t", mpi_flush_all_per_target=1e-3, mpi_flush_all_idle=1e-9)

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        t0 = ctx.now
        win.flush_all()  # idle epoch: cheap
        idle_cost = ctx.now - t0
        win.put(np.array([1.0]), target=(ctx.rank + 1) % ctx.nranks)
        t1 = ctx.now
        win.flush_all()  # active epoch: walks every rank
        active_cost = ctx.now - t1
        win.unlock_all()
        return idle_cost, active_cost

    _, results = mpi_run(program, 8, spec=spec)
    for idle_cost, active_cost in results:
        assert idle_cost < 1e-6
        assert active_cost >= 8e-3


def test_flush_all_cost_scales_with_group_size():
    spec = MachineSpec(name="t", mpi_flush_all_per_target=1e-3)

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        win.put(np.array([1.0]), target=(ctx.rank + 1) % ctx.nranks)
        t0 = ctx.now
        win.flush_all()
        cost = ctx.now - t0
        win.unlock_all()
        return cost

    _, small = mpi_run(program, 2, spec=spec)
    _, large = mpi_run(program, 16, spec=spec)
    assert large[0] / small[0] >= 4.0


def test_sendrecv_backed_rma_is_slower():
    base = MachineSpec(name="hw")
    cray = base.with_overrides(mpi_rma_over_sendrecv=True)

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        t0 = ctx.now
        if ctx.rank == 0:
            for _ in range(100):
                win.put(np.array([1.0]), target=1)
                win.flush(1)
        elapsed = ctx.now - t0
        mpi.COMM_WORLD.barrier()
        win.unlock_all()
        return elapsed

    _, hw = mpi_run(program, 2, spec=base)
    _, sr = mpi_run(program, 2, spec=cray)
    assert sr[0] > hw[0] * 1.5


def test_out_of_bounds_rma_raises():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=4, dtype=np.float64)
        win.lock_all()
        win.put(np.zeros(4), target=0, offset=2)

    with pytest.raises(MpiError, match="outside target window"):
        mpi_run(program, 1)


def test_window_free_releases_memory():
    def program(mpi, ctx):
        before = ctx.memory.rank_mb(ctx.rank, prefix="mpi/win")
        win = mpi.win_allocate(nbytes=1024 * 1024)
        during = ctx.memory.rank_mb(ctx.rank, prefix="mpi/win")
        win.free()
        after = ctx.memory.rank_mb(ctx.rank, prefix="mpi/win")
        return before, during, after

    _, results = mpi_run(program, 2)
    for before, during, after in results:
        assert before == 0.0
        assert during == pytest.approx(1.0)
        assert after == 0.0


def test_two_windows_are_independent():
    def program(mpi, ctx):
        win_a = mpi.win_allocate(shape=1, dtype=np.float64)
        win_b = mpi.win_allocate(shape=1, dtype=np.float64)
        win_a.lock_all()
        win_b.lock_all()
        if ctx.rank == 0:
            win_a.put(np.array([1.0]), target=1)
            win_b.put(np.array([2.0]), target=1)
            win_a.flush(1)
            win_b.flush(1)
        mpi.COMM_WORLD.barrier()
        return win_a.local[0], win_b.local[0]

    _, results = mpi_run(program, 2)
    assert results[1] == (1.0, 2.0)


def test_unlock_all_without_lock_raises():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.unlock_all()

    with pytest.raises(MpiError, match="without lock_all"):
        mpi_run(program, 1)


def test_dtype_mismatch_on_rget_raises():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1, dtype=np.float64)
        win.lock_all()
        win.rget(np.zeros(1, np.int32), target=0)

    with pytest.raises(MpiError, match="dtype"):
        mpi_run(program, 1)
