"""CAF event semantics (§2.1, §3.4) on both backends."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.util.errors import CafError, DeadlockError

from tests.caf.conftest import handoffs_per_call


def test_notify_then_wait(backend):
    def program(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            img.compute(2.0)
            ev.notify(target=1)
        elif img.rank == 1:
            ev.wait()
            return img.now

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] >= 2.0


def test_wait_consumes_counts(backend):
    def program(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            for _ in range(3):
                ev.notify(target=1)
        else:
            ev.wait(count=2)
            ev.wait(count=1)
            return ev.count()

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == 0


def test_multiple_slots_independent(backend):
    def program(img):
        ev = img.allocate_events(3)
        if img.rank == 0:
            ev.notify(target=1, slot=2)
            ev.notify(target=1, slot=0)
        else:
            ev.wait(slot=0)
            ev.wait(slot=2)
            return ev.count(1)

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == 0


def test_trywait(backend):
    def program(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            assert not ev.trywait()
            img.compute(1.0)
            ev.notify(target=1)
        else:
            img.compute(5.0)  # ample time for the notification to arrive
            assert ev.trywait()
            assert not ev.trywait()
            return True

    run = run_caf(program, 2, backend=backend)
    assert run.results[1]


def test_notify_implies_prior_writes_visible(backend):
    """§3.4 release semantics: the waiter sees all writes issued before
    the notify, with no other synchronization."""

    def program(img):
        co = img.allocate_coarray(8, np.float64)
        ev = img.allocate_events(1)
        if img.rank == 0:
            co.write_async(1, np.full(8, 3.25))
            ev.notify(target=1)
        else:
            ev.wait()
            return co.local.tolist()

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == [3.25] * 8


def test_pingpong_event_chain(backend):
    def program(img):
        ev = img.allocate_events(1)
        other = 1 - img.rank
        hops = []
        for i in range(4):
            if (i % 2) == img.rank:
                ev.notify(target=other)
            else:
                ev.wait()
                hops.append(img.now)
        return len(hops)

    run = run_caf(program, 2, backend=backend)
    assert run.results == [2, 2]


def test_event_wait_never_notified_deadlocks(backend):
    def program(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            ev.wait()

    with pytest.raises(DeadlockError):
        run_caf(program, 2, backend=backend)


def test_bad_slot_raises(backend):
    def program(img):
        ev = img.allocate_events(2)
        ev.notify(target=0, slot=5)

    with pytest.raises(CafError, match="slot"):
        run_caf(program, 1, backend=backend)


def test_many_to_one_notifications(backend):
    def program(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            ev.wait(count=img.nranks - 1)
            return img.now
        img.compute(float(img.rank))
        ev.notify(target=0)

    run = run_caf(program, 5, backend=backend)
    assert run.results[0] >= 4.0


def test_mpi_backend_notify_pays_flush_all_after_writes():
    """Figure 4's mechanism: CAF-MPI event_notify after coarray writes pays
    a linear-in-P FLUSH_ALL; CAF-GASNet's notify does not."""
    from repro.sim.network import MachineSpec

    spec = MachineSpec(
        name="t", ranks_per_node=1, mpi_flush_all_per_target=5e-5
    )

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        ev = img.allocate_events(1)
        img.sync_all()
        target = (img.rank + 1) % img.nranks
        t0 = img.now
        co.write_async(target, np.zeros(4))
        ev.notify(target=target)
        cost = img.now - t0
        ev.wait()
        return cost

    mpi = run_caf(program, 8, spec, backend="mpi")
    gas = run_caf(program, 8, spec, backend="gasnet")
    assert min(mpi.results) > 8 * 5e-5
    assert max(gas.results) < 8 * 5e-5
    assert mpi.profiler.total("event_notify") > gas.profiler.total("event_notify") * 3


@pytest.mark.parametrize("ncoarrays", [1, 3])
def test_mpi_backend_notify_costs_two_handoffs(ncoarrays):
    """CAF-MPI ``event_notify`` is a FLUSH_ALL per window plus the AM send,
    run as one script: the image parks once however many windows it walks
    (W + 2 parks when each cost parked the fiber); the second handoff per
    call is ``poll`` receiving the left neighbour's notification."""

    def program(img, n):
        for _ in range(ncoarrays):
            img.allocate_coarray(8, np.float64)
        ev = img.allocate_events(1)
        img.sync_all()
        for _ in range(n):
            ev.notify(target=(img.rank + 1) % img.nranks)
        ev.wait(count=n)
        img.sync_all()

    assert handoffs_per_call(program, nranks=8) <= 2


def test_gasnet_backend_notify_costs_two_handoffs(gasnet_signal_spec):
    """CAF-GASNet ``event_notify`` is the handle sync plus the notification
    AM (credit wait, injection cost) as one script, as CAF-MPI's: one park
    (3.0 per call per rank when each poll and cost parked the fiber)."""

    def program(img, n):
        img.allocate_coarray(8, np.float64)
        ev = img.allocate_events(1)
        img.sync_all()
        for _ in range(n):
            ev.notify(target=(img.rank + 1) % img.nranks)
        ev.wait(count=n)
        img.sync_all()

    assert handoffs_per_call(program, 8, "gasnet", gasnet_signal_spec) <= 2


@pytest.mark.parametrize("sanitize", [False, True])
def test_rflush_release_delivers_the_same_data_as_flush_all(sanitize):
    """``use_rflush`` (§5's nonblocking ``MPI_WIN_RFLUSH``) changes what the
    release barrier costs, not what it guarantees: a write followed by a
    notify is visible to the image that consumed the notification."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        ev = img.allocate_events(1)
        right = (img.rank + 1) % img.nranks
        co.write(right, np.full(4, float(img.rank)))
        ev.notify(target=right)
        ev.wait()
        got = co.local.tolist()
        img.sync_all()
        return got

    runs = [
        run_caf(program, 4, backend="mpi", sanitize=sanitize, backend_options=options)
        for options in ({}, {"use_rflush": True})
    ]
    assert runs[0].results == runs[1].results == [[float((r - 1) % 4)] * 4 for r in range(4)]
    if sanitize:
        assert all(run.sanitizer.report.clean for run in runs)
