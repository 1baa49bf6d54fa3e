"""CAF event semantics (§2.1, §3.4) on both backends."""

import sys

import numpy as np
import pytest

from repro.caf import run_caf
from repro.caf.backends.mpi_backend import MpiBackend
from repro.sim.network import MachineSpec
from repro.util.errors import CafError, CafTimeoutError, DeadlockError, SimTimeoutError

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


def test_blocked_image_reports_the_caf_wait_it_is_in(backend):
    """Deadlock, watchdog and telemetry reports name the wait the runtime
    was asked for on both backends: CAF-MPI's progress engine hands its
    ``reason`` to the arrivals counter it parks on (it used to drop it and
    report ``wait_geq(comm2.user.arrivals[0], 1)`` for all three)."""

    def unnotified(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            ev.wait()

    def unmatched(img):
        if img.rank == 0:
            img.sync_images([1])

    def fenced(img):
        co = img.allocate_coarray(1 << 16, np.float64)
        img.sync_all()
        before = img.now
        if img.rank == 0:
            co.write_async(1, np.ones(1 << 16))
            img.cofence()
        return before, img.now

    for program, site in [
        (unnotified, "event_wait(slot=0, count=1)"),
        (unmatched, "sync_images([1])"),
    ]:
        with pytest.raises(DeadlockError) as ei:
            run_caf(program, 2, backend=backend)
        assert ei.value.blocked == {0: site}
    # A watchdog that fires while image 0 is inside its cofence.
    before, after = run_caf(fenced, 2, backend=backend).results[0]
    with pytest.raises(SimTimeoutError) as ei:
        run_caf(fenced, 2, backend=backend, deadline=(before + after) / 2)
    assert ei.value.blocked == {
        0: {"mpi": "cofence.waitall", "gasnet": "wait_syncnb_all"}[backend]
    }


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


def _notify_n_times(ncoarrays):
    def program(img, n):
        for _ in range(ncoarrays):
            img.allocate_coarray(8, np.float64)
        ev = img.allocate_events(1)
        img.sync_all()
        for _ in range(n):
            ev.notify(target=(img.rank + 1) % img.nranks)
        ev.wait(count=n)
        img.sync_all()

    return program


@pytest.mark.parametrize("ncoarrays", [1, 3])
def test_mpi_backend_notify_costs_one_handoff(ncoarrays):
    """CAF-MPI ``event_notify`` is the release barrier's WAITALL (which
    polls: the left neighbour's notification is received here), a FLUSH_ALL
    per window and the AM send, as one script: the image parks once however
    many windows it walks (W + 2 parks when each cost parked the fiber, 2.0
    while the WAITALL's progress engine was a loop of its own)."""
    assert handoffs_per_call(_notify_n_times(ncoarrays), nranks=8) <= 1


def test_mpi_backend_rflush_notify_costs_one_handoff():
    """``use_rflush=True``: an RFLUSH_ALL per window and the wait for their
    requests are part of the same script (W + 2 = 4.0 while ``rflush_all``
    paid through ``costs.charge`` and the wait was a call of its own)."""
    per_call = handoffs_per_call(_notify_n_times(2), 8, options={"use_rflush": True})
    assert per_call <= 1


def _ping_pong(img, n):
    ev = img.allocate_events(1)
    img.sync_all()
    partner = img.rank ^ 1
    for _ in range(n):
        if img.rank % 2 == 0:
            ev.notify(partner)
            ev.wait()
        else:
            ev.wait()
            ev.notify(partner)
    img.sync_all()


def test_notify_wait_ping_pong_costs_two_handoffs(backend):
    """One round between a pair is a notify and a wait per image: one park
    each on either backend (3.0 on CAF-MPI while ``event_wait`` parked once
    per round of its ``iprobe``/``recv`` loop)."""
    assert handoffs_per_call(_ping_pong, 8, backend) <= 2


def test_mpi_backend_atomics_wait_spins_without_handoffs():
    """``event_impl="atomics"``: the busy-wait yields its poll interval, so
    the 40 spins an image makes while its partner computes are 40 events and
    one park; per round an even image parks twice (compute, notify), an odd
    one once (25.4 per image while each spin was a ``Proc.sleep``)."""

    def program(img, n):
        ev = img.allocate_events(1)
        img.sync_all()
        for _ in range(n):
            if img.rank % 2 == 0:
                img.compute(1e-5)
                ev.notify(img.rank ^ 1)
            else:
                ev.wait()
        img.sync_all()

    assert handoffs_per_call(program, 8, options={"event_impl": "atomics"}) <= 1.5


#: How an atomics wait that spins out ends: what to do about it.
SPUN_OUT_HINT = (
    "pass timeout= to bound the wait, or check that a notify targets this "
    "image and slot"
)


def test_mpi_backend_atomics_wait_that_spins_out_says_what_to_do(monkeypatch):
    monkeypatch.setattr(MpiBackend, "_ATOMIC_POLL_LIMIT", 100)

    def program(img):
        ev = img.allocate_events(1)
        img.sync_all()
        if img.rank == 0:
            ev.wait()  # nobody notifies

    with pytest.raises(CafError, match="atomic event_wait") as err:
        run_caf(program, 2, backend="mpi", backend_options={"event_impl": "atomics"})
    assert str(err.value).endswith(SPUN_OUT_HINT)


@pytest.mark.parametrize("use_rflush", [False, True])
def test_mpi_backend_quiet_costs_one_handoff(use_rflush):
    """``quiet`` with three rendezvous ``write_async`` s outstanding: each
    ``rput`` is a park of its own, and the cofence WAITALL, the release
    WAITALL and the remote-completion walk are one more (7.0 in all while
    each wait and the walk parked separately)."""

    def program(img, n):
        co = img.allocate_coarray(1 << 13, np.float64)
        img.sync_all()
        for _ in range(n):
            for k in range(3):
                co.write_async((img.rank + 1 + k) % img.nranks, np.ones(1 << 13))
            img.backend.quiet()
        img.sync_all()

    options = {"use_rflush": use_rflush}
    assert handoffs_per_call(program, 8, options=options) <= 3 + 1


def test_gasnet_backend_notify_costs_two_handoffs(gasnet_signal_spec):
    """CAF-GASNet ``event_notify`` is the handle sync plus the notification
    AM (credit wait, injection cost) as one script, as CAF-MPI's: one park
    (3.0 per call per rank when each poll and cost parked the fiber)."""
    assert handoffs_per_call(_notify_n_times(1), 8, "gasnet", gasnet_signal_spec) <= 2


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


@pytest.mark.parametrize("event_impl", ["sendrecv", "atomics"])
def test_timed_wait_returns_at_the_post(event_impl):
    """A timed ``event_wait`` is the transport's wait: under either §3.4
    design it returns when the post lands, not when the timer expires."""

    def program(img):
        ev = img.allocate_events(1)
        img.sync_all()
        start = img.now
        if img.rank == 0:
            img.compute(1e-4)
            ev.notify(1)
        else:
            ev.wait(timeout=1e-2)
        return img.now - start

    run = run_caf(program, 2, backend="mpi", backend_options={"event_impl": event_impl})
    assert run.results[1] < 1e-3


def test_timed_out_wait_is_not_a_recorded_op(backend):
    """A wait that times out raised inside its region: its time stays in
    the ``event_wait`` category, but it is not a ``caf.event_wait`` op."""

    def program(img):
        ev = img.allocate_events(1)
        img.sync_all()
        if img.rank == 1:
            with pytest.raises(CafTimeoutError):
                ev.wait(timeout=1e-4)
            ev.wait()  # posted by rank 0's notify below
        else:
            img.compute(1e-3)
            ev.notify(1)
        img.sync_all()

    run = run_caf(program, 2, backend=backend, metrics=True)
    assert run.metrics.op(1, "caf.event_wait").calls == 1
    assert run.profiler.counts[1]["event_wait"] == 2
    assert run.profiler.rank_total(1, "event_wait") >= 1e-4


def test_allocate_events_costs_one_handoff(backend):
    """Event allocation agrees on the event id in one round of the team
    handle's ``_agree_steps``: both barriers run in one script (1.75 parks
    per call per image when the CAF layer parked once per barrier)."""

    def program(img, n):
        for _ in range(n):
            img.allocate_events(1)

    assert handoffs_per_call(program, 8, backend) <= 1


#: Python-level calls (generator resumes included) one ``event_notify`` to
#: the next image plus one ``event_wait`` cost one image at P = 4: 146 on
#: CAF-MPI and 144 on CAF-GASNet while every progress turn probed through a
#: Status, a wait over no requests built its predicate, each wait formatted
#: its reason and a profiler region took eight calls; 113 and 127 while
#: ``costs.charge_in`` scheduled through ``Engine.call_in``; 112 and 126
#: since.
NOTIFY_WAIT_PAIR_CALLS = {"mpi": 112, "gasnet": 126}


#: Python-level calls one more coarray window adds to a CAF-MPI
#: notify+wait pair, per image at P = 4: the release walk's FLUSH_ALL of
#: that window. 8.0 while each window's flush opened a wrapper and a
#: generator of its own (``_flush_all_steps`` -> ``_observed`` ->
#: ``_flush_all_wait``); 4.0 since: its cost, and the resume the cost parks for.
RELEASE_WALK_WINDOW_CALLS = 4


def test_release_walk_host_work_per_window(monkeypatch):
    """The host work of the release walk (§3.4: FLUSH_ALL on every
    window), counted, so exact on any host: the calls of a notify+wait
    pair with ten coarrays less those with one, per extra window; each
    pair's calls are those of 20 pairs less 10, per pair per image."""
    monkeypatch.delenv("REPRO_SIM_DIGEST", raising=False)  # a digest adds calls

    def calls(npairs, ncoarrays):
        count = [0]

        def profile(frame, event, arg):
            if event == "call":
                count[0] += 1

        def program(img):
            for _ in range(ncoarrays):
                img.allocate_coarray(8, np.float64)
            ev = img.allocate_events(1)
            right = (img.rank + 1) % img.nranks
            ev.notify(right)  # warm-up: lazy set-up is not the pair's
            ev.wait()
            sys.setprofile(profile)  # on every fiber: any of them dispatches
            for _ in range(npairs):
                ev.notify(right)
                ev.wait()

        try:
            run_caf(program, 4, MachineSpec("test"), backend="mpi")
        finally:
            sys.setprofile(None)
        return count[0]

    def per_pair(ncoarrays):
        return (calls(20, ncoarrays) - calls(10, ncoarrays)) / (10 * 4)

    per_window = (per_pair(10) - per_pair(1)) / 9
    assert per_window <= RELEASE_WALK_WINDOW_CALLS, (
        f"the release walk costs {per_window} Python calls per window per "
        f"notify, over the budget of {RELEASE_WALK_WINDOW_CALLS}: what does "
        "every window's FLUSH_ALL do now?"
    )


def test_notify_wait_pair_host_work_budget(backend, monkeypatch):
    """The host work of one CAF event post, counted, so exact on any host:
    the calls of 20 notify+wait pairs on 4 images less those of 10, per
    pair per image. Work added to every notify or wait fails here."""
    monkeypatch.delenv("REPRO_SIM_DIGEST", raising=False)  # a digest adds calls

    def calls(npairs):
        count = [0]

        def profile(frame, event, arg):
            if event == "call":
                count[0] += 1

        def program(img):
            ev = img.allocate_events(1)
            right = (img.rank + 1) % img.nranks
            ev.notify(right)  # warm-up: lazy set-up is not the pair's
            ev.wait()
            sys.setprofile(profile)  # on every fiber: any of them dispatches
            for _ in range(npairs):
                ev.notify(right)
                ev.wait()

        try:
            run_caf(program, 4, MachineSpec("test"), backend=backend)
        finally:
            sys.setprofile(None)
        return count[0]

    per_pair = (calls(20) - calls(10)) / (10 * 4)
    budget = NOTIFY_WAIT_PAIR_CALLS[backend]
    assert per_pair <= budget, (
        f"a notify+wait pair costs {per_pair} Python calls per image on "
        f"{backend}, over the budget of {budget}: what does every post do now?"
    )
