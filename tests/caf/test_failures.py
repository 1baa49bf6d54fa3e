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
    MpiProcFailedError,
    MpiRevokedError,
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
    failure query, eager errors on operations naming it, and an event wait
    on its team failing (before its timer) instead of a hang."""

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
            ("wait", lambda: ev.wait(slot=0, timeout=1e-3)),
        ]:
            with pytest.raises(ImageFailedError) as exc_info:
                op()
            out[label] = exc_info.value.failed_image
        return out

    result = _crash_run(program, backend)
    assert result.cluster.failed_ranks == {VICTIM}
    assert result.results[VICTIM] is None  # crashed before returning
    for rank, out in enumerate(result.results):
        if rank == VICTIM:
            continue
        assert out["failed"] == [VICTIM]
        for label in ("write", "read", "notify", "spawn", "sync_images", "wait"):
            assert out[label] == VICTIM  # error identifies the failed rank


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
    async twin's agent the same error reaches the image's cofence, and
    this program lets it end the run at the crash."""

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


#: The error a survivor's wait ends in once it depends on a failed image.
FAILURES = (ImageFailedError, MpiProcFailedError, MpiRevokedError, GasnetProcFailedError)


def _names_the_dead_image_and_what_to_do(message):
    assert f"world rank {VICTIM}" in message, message
    assert message.endswith("or restart from a checkpoint"), message


def test_an_event_wait_on_a_team_with_a_dead_member_raises(backend):
    """Fortran 2018: a wait over a team with a failed image returns
    STAT_FAILED_IMAGE. An untimed event_wait on TEAM_WORLD raises
    ImageFailedError once image 3 dies — parked before the crash or called
    after it — and what already arrived still counts: a wait whose posts
    came before the crash returns."""

    def program(img):
        ev = img.allocate_events(2)
        img.sync_all()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)  # killed long before this finishes
            return None
        if img.rank == 0:
            ev.notify(1, slot=1)
        else:
            img.compute(seconds=3 * CRASH_AT)
        if img.rank == 1:
            ev.wait(slot=1)  # posted before the crash: satisfied
        with pytest.raises(ImageFailedError) as info:
            ev.wait(slot=0)  # nobody posts it
        _names_the_dead_image_and_what_to_do(str(info.value))
        return info.value.failed_image, img.now

    run = _crash_run(program, backend)
    assert [r[0] for r in run.results[:VICTIM]] == [VICTIM] * 3
    assert run.results[0][1] == pytest.approx(CRASH_AT, abs=1e-6)  # woke at the crash


def test_a_sync_images_parked_on_a_dead_partner_raises(backend):
    """SYNC IMAGES depends on the partners whose token has not come: image
    0, parked on images 1 and 3, raises ImageFailedError naming image 3 at
    its crash, although image 1's token arrived."""

    def program(img):
        img.sync_all()
        if img.rank == 1:
            img.sync_images([0])
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
        if img.rank != 0:
            return None
        with pytest.raises(ImageFailedError) as info:
            img.sync_images([1, VICTIM])
        _names_the_dead_image_and_what_to_do(str(info.value))
        return info.value.failed_image, img.now

    failed, woke = _crash_run(program, backend).results[0]
    assert (failed, woke) == (VICTIM, pytest.approx(CRASH_AT, abs=1e-6))


def test_an_mpi_team_barrier_with_a_dead_member_fails_unless_satisfied():
    """CAF-MPI revokes a team's communicator when a member fails (ULFM
    revoke; F2018 STAT_FAILED_IMAGE). A barrier every member passed before
    the crash returned; one a survivor is parked in at the crash — image 0,
    possibly on a live member — and one entered after it fail, naming the
    dead image and what to do."""

    def program(img):
        img.barrier()  # satisfied: every member came
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        if img.rank != 0:
            img.compute(seconds=3 * CRASH_AT)
        with pytest.raises((MpiRevokedError, MpiProcFailedError)) as info:
            img.barrier()
        _names_the_dead_image_and_what_to_do(str(info.value))
        return img.now

    run = _crash_run(program, "mpi")
    assert run.results[0] == pytest.approx(CRASH_AT, abs=1e-6)
    assert all(t > CRASH_AT for t in run.results[1:VICTIM])


def test_a_gasnet_sync_on_a_dead_destination_raises():
    """gasnet_wait_syncnb on a put whose destination dies before the put
    completes raises GasnetProcFailedError at the crash, naming it and what
    to do, instead of parking."""
    nbytes = 1 << 20  # on the wire for ~330 us: the destination dies under it

    def program(img):
        co = img.allocate_coarray(nbytes, np.uint8)
        img.sync_all()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        if img.rank != 0:
            return None
        img.compute(seconds=CRASH_AT - 1e-4 - img.now)
        g = img.backend.gasnet
        handle = g.put_nb(VICTIM, co.storage.offsets[VICTIM], np.ones(nbytes, np.uint8))
        with pytest.raises(GasnetProcFailedError) as info:
            g.wait_syncnb(handle)
        _names_the_dead_image_and_what_to_do(str(info.value))
        return info.value.failed_rank, img.now

    failed_rank, woke = _crash_run(program, "gasnet").results[0]
    assert (failed_rank, woke) == (VICTIM, pytest.approx(CRASH_AT, abs=1e-6))


def test_an_async_collective_error_reaches_cofence_and_the_run_recovers(backend):
    """team_allreduce_async after a crash fails on its progress agent (a
    revoked team communicator under CAF-MPI, a dead member under
    CAF-GASNet's twin). The error reaches the image's cofence instead of
    ending the run, and the survivors shrink and reduce again."""

    def program(img):
        recv = np.zeros(1)
        img.team_allreduce_async(np.ones(1), recv, SUM)  # before the crash
        img.cofence()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        img.compute(seconds=3 * CRASH_AT)
        img.team_allreduce_async(np.ones(1), recv, SUM)
        with pytest.raises(FAILURES):
            img.cofence()
        small = img.shrink_team()
        img.team_allreduce_async(np.ones(1), recv, SUM, team=small)
        img.cofence()
        return float(recv[0])

    assert _crash_run(program, backend).results == [3.0] * 3 + [None]


def test_an_event_of_a_get_from_an_image_that_dies_mid_get_never_posts(backend):
    """Image 0's read_async from image 3 is on the wire when image 3 dies.
    Its dest_event must not post over data that never came: the wait on it
    raises instead of returning with an unfilled buffer."""
    nelems = 1 << 17  # 1 MiB, on the wire for ~330 us: image 3 dies under it

    def program(img):
        co = img.allocate_coarray(nelems, np.float64)
        ev = img.allocate_events(1)
        img.sync_all()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        if img.rank != 0:
            return "bystander"
        img.compute(seconds=CRASH_AT - 1e-4 - img.now)
        co.read_async(VICTIM, np.zeros(nelems), dest_event=(ev, 0))
        with pytest.raises(ImageFailedError) as info:
            ev.wait(0)
        _names_the_dead_image_and_what_to_do(str(info.value))
        return info.value.failed_image

    run = _crash_run(program, backend)
    assert run.results == [VICTIM, "bystander", "bystander", None]


def test_an_async_collective_that_fails_posts_no_event_and_stays_for_cofence(backend):
    """team_allreduce_async after a crash: its op_event must not post (the
    event wait raises), and a later async collective does not hide its
    error from cofence."""

    def program(img):
        ev = img.allocate_events(1)
        recv, again = np.zeros(1), np.zeros(1)
        img.team_allreduce_async(np.ones(1), recv, SUM)  # the twin, before the crash
        img.cofence()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        img.compute(seconds=3 * CRASH_AT)
        img.team_allreduce_async(np.ones(1), recv, SUM, op_event=(ev, 0))
        img.compute(seconds=CRASH_AT)  # long enough for the agent to fail it
        with pytest.raises(ImageFailedError):
            ev.wait(0)
        small = img.shrink_team()
        img.team_allreduce_async(np.ones(1), again, SUM, team=small)
        with pytest.raises(FAILURES):
            img.cofence()
        return float(again[0])

    assert _crash_run(program, backend).results == [3.0] * 3 + [None]


def test_a_shrink_abandons_what_the_old_team_lost(backend):
    """Image 0's async write to image 3 is on the wire when image 3 dies,
    and image 0 learns of the crash in an event wait, not a sync. The write
    is lost with the old team: after the shrink, completing everything
    (``sync_all`` on the new team) does not report it again."""
    nelems = 1 << 17  # 1 MiB, on the wire for ~330 us: image 3 dies under it

    def program(img):
        co = img.allocate_coarray(nelems, np.float64)
        ev = img.allocate_events(1)
        img.sync_all()
        if img.rank == VICTIM:
            img.compute(seconds=1.0)
            return None
        if img.rank == 0:
            img.compute(seconds=CRASH_AT - 1e-4 - img.now)
            co.write_async(VICTIM, np.ones(nelems))
        with pytest.raises(ImageFailedError):
            ev.wait()  # nobody posts it
        small = img.shrink_team()
        img.sync_all(small)
        return small.size

    assert _crash_run(program, backend).results == [3] * 3 + [None]


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
