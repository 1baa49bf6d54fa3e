"""Engine watchdog: run(deadline=...) and SimTimeoutError diagnostics."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan
from repro.sim.network import MachineSpec
from repro.sim.sync import SimEvent
from repro.util.errors import SimTimeoutError, SimulationError


#: How every watchdog refusal ends: what to do about it.
HINT = (
    "if the run is only slow, raise deadline=; otherwise the blocked call "
    "sites listed are where it hangs"
)


def make_spec():
    return MachineSpec(
        name="test",
        latency=1e-6,
        bandwidth=1e9,
        header_bytes=0,
        tx_msg_overhead=0.0,
        rx_msg_overhead=0.0,
        loopback_latency=1e-7,
        ranks_per_node=1,
        mem_copy_bw=1e10,
    )


def test_deadline_not_hit_runs_to_completion():
    eng = Engine()
    done = []
    eng.spawn(lambda p: (p.sleep(1.0), done.append(eng.now)))
    eng.run(deadline=2.0)
    assert done == [1.0]
    assert eng.now == 1.0


def test_negative_deadline_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.run(deadline=-1.0)


def test_watchdog_fires_with_per_rank_diagnostics():
    """A self-rescheduling timer keeps the heap non-empty, so only the
    watchdog — not deadlock detection — can catch the blocked procs."""
    eng = Engine()
    ev = SimEvent("never-fired")

    def ticker():
        eng.call_in(0.5, ticker)

    eng.call_in(0.5, ticker)
    eng.spawn(lambda p: ev.wait(p), name="waiter0")
    eng.spawn(lambda p: (p.sleep(3.0), ev.wait(p)), name="waiter1")
    with pytest.raises(SimTimeoutError) as exc_info:
        eng.run(deadline=10.0)
    exc = exc_info.value
    assert exc.deadline == 10.0
    assert eng.now == 10.0
    assert set(exc.blocked) == {0, 1}
    assert "never-fired" in exc.blocked[0]
    assert exc.last_progress[1] == 3.0  # woke from sleep at t=3, then blocked
    assert "deadline" in str(exc) and "never-fired" in str(exc)
    assert str(exc).endswith(HINT), str(exc)


def test_sleep_fastpath_respects_deadline():
    """Regression: the in-place sleep shortcut (sole runnable proc, empty
    queues) must not jump the clock past the deadline — that would silently
    disable the watchdog."""
    eng = Engine()
    eng.spawn(lambda p: p.sleep(5.0), name="sleeper")
    with pytest.raises(SimTimeoutError) as exc_info:
        eng.run(deadline=1.0)
    exc = exc_info.value
    assert eng.now == 1.0
    assert exc.deadline == 1.0
    assert "sleep(5)" in exc.blocked[0]


def test_sleep_fastpath_exactly_to_deadline_completes():
    """A sleep landing exactly on the deadline is not a hang (the watchdog
    only fires on events strictly past it)."""
    eng = Engine()
    eng.spawn(lambda p: p.sleep(1.0))
    eng.run(deadline=1.0)
    assert eng.now == 1.0


def test_daemon_only_tail_finishes_instead_of_timing_out():
    eng = Engine()
    eng.spawn(lambda p: p.sleep(0.5))
    eng.spawn(lambda p: p.sleep(100.0), daemon=True)
    eng.run(deadline=1.0)  # daemon outlives the deadline: fine, not a hang
    assert eng.now == 0.5


def test_crash_plus_retransmits_become_sim_timeout():
    """Acceptance (c): a rank dies with a frame addressed to it in flight.
    The frame still lands but the dead NIC's ack blackholes, so the
    survivor retransmits on a timer; the live timers defeat deadlock
    detection — only the watchdog can convert the hang into
    SimTimeoutError naming who is stuck where.

    The survivor must block in an operation that depends on no image (it
    serves a function): a wait that depends on the corpse fails instead —
    point-to-point traffic with MpiProcFailedError (see
    tests/mpi/test_failures), an event wait on its team with
    ImageFailedError — so only such waits still reach the watchdog."""
    import numpy as np

    from repro.caf.program import run_caf

    # Wire latency 1 ms opens a wide in-flight window for the crash.
    spec = make_spec().with_overrides(latency=1e-3)

    def program(img):
        comm = img.mpi().COMM_WORLD
        buf = np.zeros(4)
        comm.barrier()
        t_after_barrier = img.now
        if img.rank == 0:
            comm.send(np.ones(4), 1)  # eager: frame in flight at the crash
            img.serve(1)  # only (dead) rank 1 would ship; names no image
        else:
            comm.recv(buf, 0)
            img.compute(seconds=1.0)  # killed long before shipping
            img.spawn(0, lambda im: None)
        return t_after_barrier

    # Runs are deterministic: a fault-free probe run measures when the
    # post-barrier exchange starts, so the crash can be placed while rank
    # 0's frame is on the wire (after departure, before the ack returns).
    probe = run_caf(program, 2, spec, backend="mpi", reliable=True)
    crash_at = max(probe.results) + 0.5e-3

    with pytest.raises(SimTimeoutError) as exc_info:
        run_caf(
            program,
            2,
            spec,
            backend="mpi",
            faults=FaultPlan(seed=1, crashes=[(1, crash_at)]),
            reliable=True,
            deadline=crash_at + 0.05,
        )
    exc = exc_info.value
    assert exc.deadline == crash_at + 0.05
    assert 0 in exc.blocked  # rank 0 reported with its blocking call site
    assert 1 not in exc.blocked  # the crashed rank is not "blocked"
    assert "serve(1)" in exc.blocked[0]
    assert "failed images: [1]" in str(exc)
    # The cluster's annotations go before the hint, which stays last.
    assert str(exc).endswith(HINT), str(exc)
    assert exc.last_progress[0] <= exc.deadline


def test_cluster_run_passes_deadline_through():
    cluster = Cluster(2, make_spec())

    def program(ctx):
        ctx.proc.sleep(5.0)
        return ctx.rank

    with pytest.raises(SimTimeoutError):
        cluster.run(program, deadline=1.0)
