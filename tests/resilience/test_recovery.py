"""Restart-from-checkpoint driver: crash consumption, budgets, outcomes."""

import numpy as np
import pytest

from repro.caf.program import run_caf
from repro.resilience import run_resilient
from repro.resilience.recovery import _strip_fired_crashes
from repro.sim.faults import FaultPlan
from repro.util.errors import CafError, ResilienceError

NR = 4
ITERS = 8


def stepper(img, *, iters=ITERS):
    r = img.resilience
    co = img.allocate_coarray(4, np.float64)
    start = r.resume_step() if r is not None and r.resumed is not None else 0
    img.sync_all()
    for i in range(start, iters):
        co.local[:] += 1.0
        img.compute(seconds=1e-3)
        img.barrier()
        if r is not None:
            r.step(state={"i": i + 1})
    img.barrier()
    return float(co.local[0])


def _midpoint(backend):
    base = run_caf(stepper, NR, backend=backend)
    return base.elapsed * 0.6


def test_restart_completes_through_crash(backend):
    plan = FaultPlan(seed=7, crashes=[(2, _midpoint(backend))])
    out = run_resilient(stepper, NR, backend=backend,
                        checkpoint_every=3, faults=plan, deadline=5.0)
    assert out.results == [float(ITERS)] * NR
    assert out.restarts == 1
    (attempt,) = out.attempts
    assert attempt["failed_images"] == [2]
    # The rerun started from a committed checkpoint, not from scratch.
    assert attempt["checkpoint_step"] in (3, 6)
    # The fired crash was consumed: the final cluster saw no failure.
    assert not out.cluster.failed_ranks


def test_restart_budget_exhaustion(backend):
    plan = FaultPlan(seed=7, crashes=[(2, _midpoint(backend))])
    with pytest.raises(ResilienceError, match="restart budget"):
        run_resilient(stepper, NR, backend=backend,
                      checkpoint_every=3, faults=plan, deadline=5.0,
                      max_restarts=0)


def test_restart_survives_multiple_crashes(backend):
    t = _midpoint(backend)
    plan = FaultPlan(seed=7, crashes=[(1, t * 0.8), (3, t)])
    out = run_resilient(stepper, NR, backend=backend,
                        checkpoint_every=2, faults=plan, deadline=5.0)
    assert out.results == [float(ITERS)] * NR
    assert out.restarts == 2
    assert [a["failed_images"] for a in out.attempts] == [[1], [3]]


def test_non_failure_errors_pass_through(backend):
    def buggy(img):
        raise CafError("application bug, not a crash")

    with pytest.raises(CafError, match="application bug"):
        run_resilient(buggy, NR, backend=backend,
                      checkpoint_every=2, max_restarts=3)


def test_strip_fired_crashes_rewinds_plan():
    plan = FaultPlan(seed=1, drop_rate=0.5, crashes=[(0, 1.0), (1, 2.0)],
                     record=True)
    # Burn some RNG draws, as a partial run would.
    class _Msg:
        src, dst, nbytes = 0, 1, 64
    for _ in range(5):
        plan.draw(_Msg.src, _Msg.dst, _Msg.nbytes)

    class _FakeCluster:
        failure_log = [{"rank": 0, "time": 1.0, "reason": "crash"}]

    fresh = _strip_fired_crashes(plan, _FakeCluster())
    assert fresh.crashes == [(1, 2.0)]
    assert fresh.drawn == 0  # rewound for a deterministic replay
    assert fresh.seed == plan.seed
