"""Unit tests for the discrete-event engine."""

import contextlib
import gc
import os
import resource
import subprocess
import sys
import threading
import types

import pytest

from repro.sim import engine as engine_mod
from repro.sim.engine import Engine
from repro.util.errors import DeadlockError, SimTimeoutError, SimulationError


def test_single_proc_runs_and_returns_result():
    eng = Engine()
    proc = eng.spawn(lambda p: 42)
    eng.run()
    assert proc.result == 42
    assert proc.state == "done"


def test_sleep_advances_virtual_clock():
    eng = Engine()

    def body(p):
        assert eng.now == 0.0
        p.sleep(1.5)
        assert eng.now == 1.5
        p.sleep(0.5)
        return eng.now

    proc = eng.spawn(body)
    eng.run()
    assert proc.result == 2.0
    assert eng.now == 2.0


def test_zero_sleep_is_noop():
    eng = Engine()
    trace = []

    def body(p):
        p.sleep(0.0)
        trace.append(eng.now)

    eng.spawn(body)
    eng.run()
    assert trace == [0.0]


def test_negative_sleep_rejected():
    eng = Engine()

    def body(p):
        p.sleep(-1.0)

    eng.spawn(body)
    with pytest.raises(SimulationError):
        eng.run()


def test_two_procs_interleave_by_time_order():
    eng = Engine()
    trace = []

    def slow(p):
        p.sleep(2.0)
        trace.append(("slow", eng.now))

    def fast(p):
        p.sleep(1.0)
        trace.append(("fast", eng.now))

    eng.spawn(slow)
    eng.spawn(fast)
    eng.run()
    assert trace == [("fast", 1.0), ("slow", 2.0)]


def test_ties_break_in_spawn_order():
    eng = Engine()
    trace = []
    for i in range(5):
        eng.spawn(lambda p, i=i: trace.append(i))
    eng.run()
    assert trace == [0, 1, 2, 3, 4]


def test_wake_resumes_at_wakers_time():
    eng = Engine()
    times = []

    def waiter(p):
        p.block("wait")
        times.append(eng.now)

    def waker(p):
        p.sleep(7.0)
        w.wake()

    w = eng.spawn(waiter)
    eng.spawn(waker)
    eng.run()
    assert times == [7.0]


def test_deadlock_detected_with_block_reasons():
    eng = Engine()
    eng.spawn(lambda p: p.block("recv(tag=7)"))
    eng.spawn(lambda p: p.block("barrier"))
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    assert ei.value.blocked == {0: "recv(tag=7)", 1: "barrier"}
    assert "recv(tag=7)" in str(ei.value)


def test_partial_deadlock_detected():
    eng = Engine()
    eng.spawn(lambda p: p.block("event_wait"))
    eng.spawn(lambda p: p.sleep(1.0))
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    assert list(ei.value.blocked) == [0]


def test_exception_in_proc_propagates():
    eng = Engine()

    def bad(p):
        p.sleep(1.0)
        raise ValueError("boom")

    eng.spawn(bad)
    eng.spawn(lambda p: p.block("never woken"))
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_call_at_in_past_rejected():
    eng = Engine()

    def body(p):
        p.sleep(5.0)
        eng.call_at(1.0, lambda: None)

    eng.spawn(body)
    with pytest.raises(SimulationError):
        eng.run()


def test_stale_wake_is_ignored():
    """A wake targeting an old block must not resume a newer block."""
    eng = Engine()
    trace = []

    def waiter(p):
        p.block("first")
        trace.append(("resumed-first", eng.now))
        p.block("second")
        trace.append(("resumed-second", eng.now))

    def waker(p):
        p.sleep(1.0)
        w.wake()  # resumes "first"
        w.wake()  # stale: targets the same generation, only one resume happens
        p.sleep(1.0)
        w.wake()  # resumes "second"

    w = eng.spawn(waiter)
    eng.spawn(waker)
    eng.run()
    assert trace == [("resumed-first", 1.0), ("resumed-second", 2.0)]


def test_engine_runs_once():
    eng = Engine()
    eng.spawn(lambda p: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.run()


def test_spawn_after_run_rejected():
    eng = Engine()
    eng.spawn(lambda p: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.spawn(lambda p: None)


def test_sleep_from_foreign_thread_rejected():
    eng = Engine()

    def body(p):
        other.sleep(1.0)  # not the running proc

    other = eng.spawn(lambda p: p.block("parked"))
    eng.spawn(body)
    with pytest.raises(SimulationError, match="outside the running process"):
        eng.run()


#: How a refusal to park a process from outside its fiber ends.
OUTSIDE_HINT = (
    "work a callback releases must be queued for the process's own fiber, "
    "which the CAF runtime's defer does"
)


def test_a_callback_that_parks_a_process_is_refused_with_what_to_do():
    eng = Engine()
    proc = eng.spawn(lambda p: p.sleep(1.0))
    eng.call_in(0.5, lambda: proc.run_script(iter([1e-6])))  # scheduler context
    with pytest.raises(SimulationError, match="outside the running process") as err:
        eng.run()
    assert str(err.value).endswith(OUTSIDE_HINT)


def test_many_procs_deterministic_order():
    def run_once():
        eng = Engine()
        trace = []

        def body(p, i):
            p.sleep((i * 7) % 5 + 0.5)
            trace.append(i)
            p.sleep((i * 3) % 4 + 0.25)
            trace.append(i + 100)

        for i in range(20):
            eng.spawn(lambda p, i=i: body(p, i))
        eng.run()
        return trace

    assert run_once() == run_once()


def test_scheduler_callbacks_run_in_time_order():
    eng = Engine()
    order = []

    def body(p):
        eng.call_in(3.0, lambda: order.append("c"))
        eng.call_in(1.0, lambda: order.append("a"))
        eng.call_in(2.0, lambda: order.append("b"))
        p.sleep(10.0)

    eng.spawn(body)
    eng.run()
    assert order == ["a", "b", "c"]


def _refuse_third_fiber_thread(monkeypatch, at_refusal=lambda: None):
    """Make the host refuse the third fiber thread ``run()`` starts."""
    real_start = threading.Thread.start
    seen = []

    def flaky_start(self):
        if self.name.startswith("sim-"):
            seen.append(self.name)
            if len(seen) == 3:
                at_refusal()
                raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", flaky_start)


def test_thread_start_failure_names_started_fibers(monkeypatch):
    """Thread exhaustion part-way through start-up (``ulimit -u`` at 4096
    ranks) must surface as a SimulationError saying how far start-up got,
    not as teardown's ``cannot join thread before it is started``."""
    _refuse_third_fiber_thread(monkeypatch)
    eng = Engine()
    procs = [eng.spawn(lambda p: p.sleep(1.0)) for _ in range(5)]
    with pytest.raises(SimulationError, match=r"2 of 5 process fibers") as exc_info:
        eng.run()
    assert "thread limit" in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__, RuntimeError)
    # Teardown unwound the two started fibers and skipped the other three.
    assert all(p.state == "done" for p in procs)
    assert not any(t.name.startswith("sim-") for t in threading.enumerate())


# -- the cyclic collector -------------------------------------------------------


def _boom(p):
    raise ValueError("boom")


#: Exit path -> (what each fiber does after its first sleep, run() keywords,
#: what run() raises).
RUN_EXITS = {
    "normal end": (lambda p: None, {}, None),
    "exception in a fiber": (_boom, {}, ValueError),
    "deadlock": (lambda p: p.block("never woken"), {}, DeadlockError),
    "deadline": (lambda p: p.sleep(10.0), {"deadline": 2.0}, SimTimeoutError),
    "thread start refused": (lambda p: None, {}, SimulationError),
}


@pytest.fixture
def collector_state():
    """Give the process back the collector state it had before the test."""
    was_on = gc.isenabled()
    yield
    (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("caller_on", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("exit_path", list(RUN_EXITS))
def test_run_pauses_the_collector_and_restores_the_callers_state(
    exit_path, caller_on, collector_state, monkeypatch
):
    """The cyclic collector is off while the fibers run (and while they
    start); whichever way ``run()`` ends, the caller reads the state it had
    on entry — a caller that had disabled it still sees it disabled."""
    then, kwargs, raises = RUN_EXITS[exit_path]
    inside = []  # gc.isenabled() as seen from inside the run

    def body(p):
        inside.append(gc.isenabled())
        p.sleep(1.0)
        then(p)

    if exit_path == "thread start refused":
        _refuse_third_fiber_thread(monkeypatch, lambda: inside.append(gc.isenabled()))
    (gc.enable if caller_on else gc.disable)()
    eng = Engine()
    for _ in range(5):
        eng.spawn(body)
    with pytest.raises(raises) if raises else contextlib.nullcontext():
        eng.run(**kwargs)
    assert inside and not any(inside)
    assert gc.isenabled() is caller_on


# -- host placement of the fibers ---------------------------------------------

needs_sched = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="host has no thread-affinity calls"
)


def _placement():
    """The calling thread's (affinity mask, scheduling policy)."""
    return os.sched_getaffinity(0), os.sched_getscheduler(0)


@needs_sched
def test_run_places_every_fiber_and_leaves_the_caller_alone():
    """Each fiber confines *itself* (pid 0 = the calling thread): rank
    fibers and a daemon spawned mid-run all land on ``fiber_cpu`` under
    ``SCHED_BATCH``; the thread that called ``run()`` keeps its own mask
    and policy."""
    caller = _placement()
    eng = Engine()
    seen = []

    def agent(p):
        seen.append(_placement())
        p.block("agent idle")

    def body(p):
        seen.append(_placement())
        p.sleep(1.0)
        if p.pid == 0:
            eng.spawn(agent, name="agent", daemon=True)
        p.sleep(1.0)

    assert eng.fiber_cpu is None and eng.fiber_policy == "normal"  # not run yet
    eng.spawn(body)
    eng.spawn(body)
    eng.run()
    assert _placement() == caller
    if eng.fiber_cpu is None:  # e.g. no /proc: fibers inherit the caller's
        assert eng.fiber_policy == "normal"
        expected = caller
    else:
        assert eng.fiber_cpu in caller[0] and eng.fiber_policy == "batch"
        expected = ({eng.fiber_cpu}, os.SCHED_BATCH)
    assert seen == [expected] * 3


@needs_sched
def test_handoff_costs_one_context_switch():
    """Two processes alternating sleeps hand the baton over on every event.
    Co-located under ``SCHED_BATCH`` that is one voluntary switch each (the
    waker parks, the woken fiber runs); without it the woken fiber preempts
    its waker, finds the GIL held and sleeps again: 2.6-3.3 per handoff."""
    n = 5_000
    eng = Engine()

    def body(p):
        for _ in range(n):
            p.sleep(1e-6)

    eng.spawn(body)
    eng.spawn(body)
    before = resource.getrusage(resource.RUSAGE_SELF)
    eng.run()
    after = resource.getrusage(resource.RUSAGE_SELF)
    if eng.fiber_cpu is None:
        pytest.skip("host cannot co-locate the fibers")
    switches = (after.ru_nvcsw - before.ru_nvcsw) + (after.ru_nivcsw - before.ru_nivcsw)
    assert eng.events_executed == 2 * n + 2
    assert switches / (2 * n) <= 1.3


# -- the C allocator -------------------------------------------------------------


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


# The child asks glibc itself: ``malloc_info`` prints one ``<heap nr=...>``
# element per malloc arena the process has made.
_HEAPS_CHILD = """
import ctypes, sys, tempfile
from repro.apps.fft import run_fft
from repro.caf import run_caf

run = run_caf(run_fft, 64, backend="mpi", m=1 << 16)
assert run.cluster.engine.malloc_arenas == 1
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
with tempfile.NamedTemporaryFile("rb") as out:
    stream = libc.fopen(out.name.encode(), b"w")
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    print(out.read().count(b"<heap nr="))
"""


@pytest.mark.skipif(not _glibc(), reason="glibc's malloc_info only")
def test_fft_x64_allocates_from_one_malloc_arena():
    """A run's fibers are 64 threads, one running at a time. Left to glibc
    they spread their numpy blocks over up to 8 arenas per CPU (16 read
    here on 2 CPUs); the first run caps the process at one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("MALLOC_ARENA_MAX", None)
    out = subprocess.run(
        [sys.executable, "-c", _HEAPS_CHILD], env=env, check=True, capture_output=True, text=True
    )
    assert int(out.stdout.split()[-1]) <= 2


@pytest.fixture
def fresh_allocator_setup():
    """Let one test see the process's first run again, and forget what it saw."""
    engine_mod._one_malloc_arena.cache_clear()
    yield
    engine_mod._one_malloc_arena.cache_clear()


@pytest.mark.parametrize(
    "libc",
    [None, types.SimpleNamespace(), types.SimpleNamespace(mallopt=lambda param, value: 0)],
    ids=["no-libc", "no-mallopt", "mallopt-refuses"],
)
def test_run_without_the_arena_cap_leaves_the_allocator_alone(
    libc, fresh_allocator_setup, monkeypatch
):
    monkeypatch.setattr(engine_mod, "_libc", lambda: libc)
    eng = Engine()
    eng.spawn(lambda p: p.sleep(1.0))
    eng.spawn(lambda p: p.sleep(2.0))
    eng.run()
    assert eng.now == 2.0 and eng.malloc_arenas is None


def test_the_arena_cap_is_asked_for_once_before_the_first_fiber(
    fresh_allocator_setup, monkeypatch
):
    calls = []

    def mallopt(param, value):
        calls.append((param, value, [t.name for t in threading.enumerate()]))
        return 1

    monkeypatch.setattr(engine_mod, "_libc", lambda: types.SimpleNamespace(mallopt=mallopt))
    for _ in range(2):
        eng = Engine()
        assert eng.malloc_arenas is None  # not run yet
        eng.spawn(lambda p: p.sleep(1.0))
        eng.run()
        assert eng.malloc_arenas == 1
    assert len(calls) == 1
    param, value, threads = calls[0]
    assert (param, value) == (engine_mod._M_ARENA_MAX, 1)
    assert not any(name.startswith("sim-") for name in threads)
