"""RMA completion is origin-owned: each rank's ``Window`` handle tracks its
own ops, and the shared window state holds nothing sized by the group."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.mpi import SUM
from repro.mpi.window import Window, _WindowState
from repro.mpi.world import MpiWorld
from repro.sim.cluster import Cluster
from repro.sim.network import MachineSpec
from repro.util.errors import SimTimeoutError

from tests.mpi.conftest import mpi_run

KIB = 1024 // 8  # float64 elements per KiB


def _containers(obj):
    return {k: v for k, v in vars(obj).items() if isinstance(v, (list, tuple, dict, set))}


def test_window_state_for_4096_ranks_is_small_and_has_no_per_rank_container():
    nranks = 4096
    group, buffers = tuple(range(nranks)), [None] * nranks
    tracemalloc.start()
    state = _WindowState(group, buffers, 0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1_000_000  # 138 MB when completion state was a P x P table
    built = {
        k: v for k, v in _containers(state).items() if v is not group and v is not buffers
    }
    assert built and all(len(v) == 0 for v in built.values()), built

    ctx = SimpleNamespace(sanitizer=None, metrics=None)
    win = Window(state, SimpleNamespace(ctx=ctx, rank=7))
    assert all(len(v) == 0 for v in _containers(win).values())


def _note_acks(times, engine, **requests):
    """File the virtual time each request completes under its name."""
    for name, req in requests.items():
        req.subscribe(lambda name=name: times.__setitem__(name, engine.now))


def test_two_origins_flushing_one_target_each_wake_at_their_own_ack():
    # Rendezvous-sized PUTs: the request completes at the op's ack, so it
    # marks the instant the origin learns of remote completion.
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=128 * KIB, dtype=np.float64)
        win.lock_all()
        out = None
        if ctx.rank in (1, 2):
            size = (16 if ctx.rank == 1 else 128) * KIB
            acked = {}
            _note_acks(acked, ctx.engine, put=win.rput(np.ones(size), 0))
            win.flush(0)
            out = (ctx.engine.now, acked["put"])
        win.unlock_all()
        return out

    _, results = mpi_run(program, 3)
    (woke1, ack1), (woke2, ack2) = results[1], results[2]
    assert woke1 == ack1 and woke2 == ack2
    assert ack1 < ack2  # rank 1 did not wait for rank 2's larger PUT


def test_flush_rflush_and_flush_all_outstanding_at_once_track_their_own_ops():
    def program(mpi, ctx):
        win = mpi.win_allocate(shape=1024 * KIB, dtype=np.float64)
        win.lock_all()
        t = {}
        if ctx.rank == 0:
            small = win.rput(np.ones(64 * KIB), 2)
            big = win.rput(np.ones(256 * KIB), 1)
            _note_acks(
                t, ctx.engine, small=small, big=big,
                rflush1=win.rflush(1), rflush2=win.rflush(2), rflush_all=win.rflush_all(),
            )
            win.flush(2)
            t["flush2"] = ctx.engine.now
            # Issued after the rflushes: they must not wait for it.
            _note_acks(t, ctx.engine, late=win.rput(np.ones(1024 * KIB), 2))
            win.flush_all()
            t["flush_all"] = ctx.engine.now
        win.unlock_all()
        return t

    _, results = mpi_run(program, 3)
    t = results[0]
    assert t["small"] < t["big"] < t["late"]
    assert t["flush2"] == t["rflush2"] == t["small"]  # not the PUT to rank 1
    assert t["rflush1"] == t["rflush_all"] == t["big"]  # not the later PUT
    assert t["flush_all"] == t["late"]


def test_timeout_report_shows_flush_lock_and_request_block_reasons_verbatim():
    # 1 MB/s: a 64 KiB payload is in flight for ~65 ms, barriers take ~0.1 ms.
    spec = MachineSpec(name="slow-wire", bandwidth=1e6, ranks_per_node=1)
    win_ids = []

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        win = mpi.win_allocate(shape=64 * KIB, dtype=np.float64)
        win_ids.append(win.win_id)
        if ctx.rank == 2:
            win.lock(0, exclusive=True)
            ctx.proc.sleep(1.0)
        elif ctx.rank == 3:
            ctx.proc.sleep(1e-3)
            win.lock(0)
        else:
            win.lock_all()
            payload = np.ones(64 * KIB)
            if ctx.rank == 0:
                win.put(payload, 1)
                win.flush(1)
            elif ctx.rank == 1:
                win.put(payload, 2)
                win.flush_all()
            else:
                win.rget(payload, 0).wait()

    cluster = Cluster(5, spec, seed=1)
    with pytest.raises(SimTimeoutError) as exc_info:
        cluster.run(program, deadline=0.03)
    w = win_ids[0]
    assert exc_info.value.blocked == {
        0: f"wait(flush(win={w},o=0,t=1))",
        1: f"wait(flush_all(win={w},o=1))",
        2: "sleep(1)",
        3: f"wait(lock(win={w},t=0))",
        4: f"wait(req:rget(win={w},target=0))",
    }


def test_window_ids_do_not_depend_on_what_ran_earlier_in_the_process():
    """A run owns its id counters: the same program run three times in one
    process gets the same window ids, so everything that embeds one — block
    reasons, the timeout report, memory-ledger labels — reads the same."""
    spec = MachineSpec(name="slow-wire", bandwidth=1e6, ranks_per_node=1)

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        win = mpi.win_allocate(shape=64 * KIB, dtype=np.float64)
        seen["ids"].add(win.win_id)
        if ctx.rank == 2:
            win.lock(0, exclusive=True)
            ctx.proc.sleep(1.0)
        elif ctx.rank == 3:
            ctx.proc.sleep(1e-3)
            win.lock(0)
        else:
            win.lock_all()
            if ctx.rank == 0:
                win.put(np.ones(64 * KIB), 1)
                win.flush(1)

    runs = []
    for _ in range(3):
        seen = {"ids": set()}
        cluster = Cluster(4, spec, seed=1)
        with pytest.raises(SimTimeoutError) as exc_info:
            cluster.run(program, deadline=0.03)
        seen["labels"] = [sorted(ledger) for ledger in cluster.memory._ledgers]
        seen["report"] = str(exc_info.value)
        seen["blocked"] = exc_info.value.blocked
        runs.append(seen)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["ids"] == {0}
    assert all("mpi/win0" in labels for labels in runs[0]["labels"])
    assert runs[0]["blocked"][0] == "wait(flush(win=0,o=0,t=1))"
    assert runs[0]["blocked"][3] == "wait(lock(win=0,t=0))"
    assert "flush(win=0,o=0,t=1)" in runs[0]["report"]


@pytest.fixture
def requests(monkeypatch):
    """Every request ``Window._begin`` builds, in issue order."""
    made = []
    begin = Window._begin

    def recording_begin(self, *args, **kwargs):
        made.append(begin(self, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(Window, "_begin", recording_begin)
    return made


def test_request_names_read_after_completion(requests):
    runs = [(0, 2), (4, 2)]

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=8, dtype=np.int64)
        win.lock_all()
        if ctx.rank == 0:
            buf, one = np.zeros(4, np.int64), np.ones(1, np.int64)
            win.rput(buf, 1)
            win.rget(buf, 1)
            win.raccumulate(buf, 1, op=SUM)
            win.fetch_and_op(one, np.zeros(1, np.int64), 1, op=SUM)
            win.compare_and_swap(0, 1, np.zeros(1, np.int64), 1)
            win.put_runs(buf, 1, runs)
            win.get_runs(buf, 1, runs)
            more = (win.rflush(1), win.rflush_all())
            win.flush_all()
            requests.extend(more)
        win.unlock_all()
        return win.win_id

    _, results = mpi_run(program, 2)
    w = results[0]
    # put_runs buffers like rput: an eager-sized payload is locally complete
    # on return, whether or not anyone holds its request.
    assert [req.completed for req in requests] == [True] * 9
    assert [req.kind for req in requests] == [
        f"rput(win={w},target=1)",
        f"rget(win={w},target=1)",
        f"raccumulate(win={w},target=1)",
        f"fetch_op(win={w},target=1)",
        f"cas(win={w},target=1)",
        f"put_runs(win={w},target=1)",
        f"get_runs(win={w},target=1)",
        f"rflush(win={w},t=1)",
        f"rflush_all(win={w})",
    ]


@pytest.mark.parametrize("nbytes, eager", [(256, True), (64 * 1024, False)])
def test_put_runs_buffers_like_rput(requests, nbytes, eager):
    """A strided PUT takes rput's buffering: an eager-sized payload is copied
    and locally complete on return; a rendezvous-sized one rides as a view
    of the user buffer, in the flush_local registry, until delivery."""
    n = nbytes // 8

    def program(mpi, ctx):
        win = mpi.win_allocate(shape=2 * n, dtype=np.float64)
        win.lock_all()
        seen = None
        if ctx.rank == 0:
            win.put_runs(np.ones(n), 1, [(0, n // 2), (n, n - n // 2)])
            seen = (requests[-1].completed, len(win._unread_puts))
            win.flush(1)
            seen += (requests[-1].completed, len(win._unread_puts))
        win.unlock_all()
        return seen

    _, results = mpi_run(program, 2)
    assert results[0] == ((True, 0) if eager else (False, 1)) + (True, 0)
