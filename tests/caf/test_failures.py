"""Image crashes surfacing at the CAF level, on both backends."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.mpi.constants import SUM
from repro.sim.faults import FaultPlan
from repro.util.errors import (
    CafError,
    CafTimeoutError,
    GasnetProcFailedError,
    ImageFailedError,
)

CRASH_AT = 2e-3
VICTIM = 3


def _crash_run(program, backend, nranks=4, **kwargs):
    return run_caf(
        program,
        nranks,
        backend=backend,
        faults=FaultPlan(seed=1, crashes=[(VICTIM, CRASH_AT)]),
        **kwargs,
    )


def test_crash_surfaces_everywhere(backend):
    """Survivors observe the dead image through every CAF surface: the
    failure query, eager errors on operations naming it, and a bounded
    event wait instead of a hang."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        ev = img.allocate_events(2)
        img.sync_all()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)  # killed long before this finishes
            return "unreachable"
        img.compute(seconds=3 * CRASH_AT)  # let the crash land
        out = {"failed": img.failed_images()}
        for label, op in [
            ("write", lambda: co.write(VICTIM, np.ones(4))),
            ("read", lambda: co.read(VICTIM)),
            ("notify", lambda: ev.notify(VICTIM)),
            ("spawn", lambda: img.spawn(VICTIM, lambda im: None)),
            ("sync_images", lambda: img.sync_images([VICTIM])),
        ]:
            with pytest.raises(ImageFailedError) as exc_info:
                op()
            out[label] = exc_info.value.failed_image
        # The dead image was this slot's notifier: the wait times out
        # instead of hanging the survivor forever.
        try:
            ev.wait(slot=0, timeout=1e-3)
            out["wait"] = "posted"
        except CafTimeoutError:
            out["wait"] = "timeout"
        return out

    result = _crash_run(program, backend)
    assert result.cluster.failed_ranks == {VICTIM}
    assert result.results[VICTIM] is None  # crashed before returning
    for rank, out in enumerate(result.results):
        if rank == VICTIM:
            continue
        assert out["failed"] == [VICTIM]
        for label in ("write", "read", "notify", "spawn", "sync_images"):
            assert out[label] == VICTIM  # error identifies the failed rank
        assert out["wait"] == "timeout"


def test_crash_mid_script_unwinds_the_blocked_call(backend):
    """The victim is parked inside one blocking call — on CAF-GASNet a
    script other images' fibers have been driving (their notifications run
    its handlers) — when the injected crash lands: its fiber unwinds, the
    script is closed, and the survivors carry on."""

    def program(img):
        ev = img.allocate_events(2)
        img.sync_all()
        if img.rank == VICTIM:
            ev.wait(slot=0)  # never posted: killed in here
            return "unreachable"
        ev.notify(VICTIM, slot=1)  # handled inside the victim's wait
        img.compute(seconds=3 * CRASH_AT)
        return img.failed_images()

    result = _crash_run(program, backend)
    assert result.results == [[VICTIM]] * 3 + [None]
    victim = result.cluster.engine.procs[VICTIM]
    assert victim.crashed and victim._script is None and victim._script_call is None
    if backend == "gasnet":
        assert victim.block_reason == "event_wait(slot=0, count=1)"


def test_a_gasnet_team_wait_fails_on_a_dead_member():
    """CAF-GASNet's team barrier raises GasnetProcFailedError on a member
    that died before signalling, instead of parking the survivors. On an
    async twin's agent the same error ends the run at the crash: the
    agent has no caller to hand it to."""

    def program(img, asynchronous):
        recv = np.zeros(1)
        img.team_allreduce_async(np.ones(1), recv, SUM)  # the twin, before the crash
        img.cofence()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        img.compute(seconds=3 * CRASH_AT)
        if asynchronous:
            img.team_allreduce_async(np.ones(1), recv, SUM)
            img.cofence()
            return "unreachable"
        with pytest.raises(GasnetProcFailedError) as info:
            img.barrier()
        return info.value.failed_rank

    run = _crash_run(program, "gasnet", asynchronous=False)
    assert run.results == [VICTIM] * 3 + [None]
    with pytest.raises(GasnetProcFailedError, match="team member world rank 3") as info:
        _crash_run(program, "gasnet", asynchronous=True)
    assert info.value.caf_cluster.elapsed < 4 * CRASH_AT


def test_shrink_team_refuses_an_image_declared_failed(backend):
    """A live image the run has declared failed (as a transport give-up
    does) is not a survivor: its shrink_team() names it and what to do."""

    def program(img):
        if img.rank == 1:
            img.cluster.declare_failed(1)
            img.shrink_team()

    with pytest.raises(CafError, match="image 1 called shrink_team") as info:
        run_caf(program, 2, backend=backend)
    assert str(info.value).endswith(
        "end this image's program instead of recovering it"
    ), str(info.value)


def test_a_late_survivor_gets_the_first_survivors_team(backend):
    """Image 0 shrinks TEAM_WORLD after image 3's crash; image 1 crashes
    next, and image 2 shrinks only then. The first shrink decided the
    successor for every survivor, so both get the same team, image 1 in it."""

    def program(img):
        img.sync_all()
        if img.rank in (1, VICTIM):
            img.compute(seconds=1.0)  # killed long before this finishes
            return None
        img.compute(seconds=(3 if img.rank == 0 else 6) * CRASH_AT)
        small = img.shrink_team()
        return small.team_id, small.members

    crashes = [(VICTIM, CRASH_AT), (1, 4 * CRASH_AT)]
    run = run_caf(program, 4, backend=backend, faults=FaultPlan(seed=1, crashes=crashes))
    assert run.cluster.failed_ranks == {1, VICTIM}
    assert run.results[0] == run.results[2]
    assert run.results[0][1] == (0, 1, 2)


def test_shrink_team_yields_working_survivor_team(backend):
    """ULFM-style recovery at the CAF level: survivors shrink TEAM_WORLD
    and the new team supports allocation, RMA, and collectives."""

    def program(img):
        img.sync_all()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return "unreachable"
        img.compute(seconds=3 * CRASH_AT)
        assert img.failed_images() == [VICTIM]
        small = img.shrink_team()
        assert small.size == img.nranks - 1
        assert img.failed_images(small) == []
        me = img.this_image(small)
        # Fresh allocations over the shrunken team work.
        co = img.allocate_coarray(4, np.float64, team=small)
        ev = img.allocate_events(1, team=small)
        img.barrier(small)
        # RMA to a survivor neighbor through the new handle.
        right = (me + 1) % small.size
        co.write(right, np.full(4, float(me)))
        ev.notify(right, 0)
        ev.wait(0)
        img.barrier(small)
        left = (me - 1) % small.size
        assert np.all(co.local == float(left))
        # A collective over the survivors computes the right value.
        recv = np.zeros(1)
        img.team_allreduce(np.array([1.0]), recv, SUM, team=small)
        assert recv[0] == float(small.size)
        return me

    result = _crash_run(program, backend)
    survivors = [r for i, r in enumerate(result.results) if i != VICTIM]
    assert sorted(survivors) == [0, 1, 2]


def test_event_wait_timeout_consumes_nothing(backend):
    def program(img):
        ev = img.allocate_events(1)
        img.sync_all()
        try:
            ev.wait(slot=0, count=2, timeout=1e-4)
        except CafTimeoutError:
            pass
        # A post arriving after the timeout is still there to consume.
        if img.rank == 0:
            ev.notify(1)
        img.sync_all()
        if img.rank == 1:
            ev.wait(slot=0, count=1, timeout=1.0)  # already posted: no timeout
            assert ev.count(0) == 0  # ...and the post was consumed
        return True

    run = run_caf(program, 2, backend=backend)
    assert all(run.results)


def test_event_wait_timeout_satisfied_before_expiry(backend):
    def program(img):
        ev = img.allocate_events(1)
        img.sync_all()
        if img.rank == 0:
            img.compute(seconds=1e-4)
            ev.notify(1)
        elif img.rank == 1:
            ev.wait(slot=0, timeout=10.0)  # arrives well before the timeout
        img.sync_all()
        return img.now

    run = run_caf(program, 2, backend=backend)
    # Nobody waited out the 10-second timer: the run ends at wire speed.
    assert all(t < 0.1 for t in run.results)


def test_negative_timeout_rejected(backend):
    def program(img):
        ev = img.allocate_events(1)
        img.sync_all()
        with pytest.raises(CafError):
            ev.wait(slot=0, timeout=-1.0)
        return True

    assert all(run_caf(program, 2, backend=backend).results)
