"""Watchdog firing on crash-induced hangs, on both backends.

An event wait whose notifier is a corpse can never complete; plain
deadlock detection may not fire (retransmission timers keep the heap
busy), so the virtual-time watchdog is the backstop. The diagnostic must
do the post-mortem for you: name every blocked survivor with its call
site, and stamp the failed-image set onto the error.
"""

import re

import pytest

from repro.caf.program import run_caf
from repro.sim.faults import FaultPlan
from repro.util.errors import SimTimeoutError

VICTIM = 2


def orphaned_wait(img):
    """Ranks 0/1 wait on a slot only the (about to die) rank 2 would post."""
    ev = img.allocate_events(1)
    img.sync_all()
    if img.rank == VICTIM:
        img.compute(seconds=1.0)  # killed long before this finishes
        return
    ev.wait(0)


def test_watchdog_names_corpse_and_blocked_ranks(backend):
    with pytest.raises(SimTimeoutError) as exc_info:
        run_caf(orphaned_wait, 3, backend=backend, deadline=0.05,
                faults=FaultPlan(seed=4, crashes=[(VICTIM, 1e-3)]))
    exc = exc_info.value

    # Both survivors are reported blocked, at a wait call site; the dead
    # image is not listed as blocked (it is listed as dead).
    assert sorted(exc.blocked) == [0, 1]
    assert all("wait" in why for why in exc.blocked.values())
    assert VICTIM not in exc.blocked

    # The error names the corpse, both structurally and in the message.
    assert exc.failed_ranks == [VICTIM]
    assert f"failed images: [{VICTIM}]" in str(exc)
    assert re.search(r"rank 0: \S+.*rank 1: \S+", str(exc), re.DOTALL)

    # Survivors last made progress before the deadline, not at zero.
    assert exc.last_progress
    assert all(0 < t < 0.05 for t in exc.last_progress.values())


def test_watchdog_report_is_deterministic(backend):
    """The same hang produces the same diagnostic on every run."""
    msgs = []
    for _ in range(2):
        with pytest.raises(SimTimeoutError) as exc_info:
            run_caf(orphaned_wait, 3, backend=backend, deadline=0.05,
                    faults=FaultPlan(seed=4, crashes=[(VICTIM, 1e-3)]))
        msgs.append(str(exc_info.value))
    assert msgs[0] == msgs[1]
