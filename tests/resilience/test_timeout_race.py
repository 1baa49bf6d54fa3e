"""event_wait(timeout) racing an injected network delay.

The notify's delivery time is stretched by a seeded fault-plan delay while
the waiter arms a timeout: whichever fires first is a genuine race in
virtual time. The simulator must pick the SAME winner on every run, with a
bit-identical event-order digest — both pinned to the values recorded at
127ef01, where the two dispatchers of the day agreed on them.
"""

import pytest

from repro.caf.program import run_caf
from repro.sim.faults import FaultPlan
from repro.util.errors import CafTimeoutError

# Spans both sides of the delayed notify's arrival (notifier computes
# ~5 ms before sending, the fault plan stretches delivery by up to 2 ms):
# the small timeouts lose to the clock, the large ones see the post, and
# the middle ones sit inside the injected-delay window where the winner
# depends on the exact seeded draw. Each must be stable. The "posted" rows
# were re-recorded once: a satisfied wait now cancels its timer, which
# therefore no longer fires (one event fewer) or sets the run's end, so
# both read one digest, that of the same run with no timeout left behind.
GOLDEN = {
    1e-4: ("timeout", "4b66065737dc5e18ab0ab098cdb67c32"),
    3e-3: ("timeout", "ba5d3f8264d69d9c3e7643efd8a31a88"),
    4e-3: ("timeout", "4b9f51b49bd18cfa407379e2c86aa989"),
    5e-3: ("posted", "98f1d220d0f39f642b7657da75ee1f71"),
    5e-2: ("posted", "98f1d220d0f39f642b7657da75ee1f71"),
}
TIMEOUTS = tuple(GOLDEN)


def racer(img, *, timeout):
    ev = img.allocate_events(1)
    img.sync_all()
    if img.rank == 0:
        img.compute(seconds=5e-3)  # let rank 1 arm its timeout first
        ev.notify(1)
        out = "sent"
    else:
        try:
            ev.wait(0, timeout=timeout)
            out = "posted"
        except CafTimeoutError:
            out = "timeout"
    img.sync_all()
    return out


def _race(timeout):
    plan = FaultPlan(seed=21, delay_rate=1.0, delay_jitter=2e-3)
    run = run_caf(racer, 2, backend="mpi", faults=plan, deadline=5.0,
                  timeout=timeout)
    return run.results[1], run.cluster.engine.order_digest()


@pytest.mark.parametrize("timeout", TIMEOUTS)
def test_race_winner_and_digest_pinned(monkeypatch, timeout):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    first, second = _race(timeout), _race(timeout)
    assert first == second, "winner or event order flapped between runs"
    assert first == GOLDEN[timeout]


def test_race_actually_has_two_outcomes(monkeypatch):
    """The parametrized sweep is a real race: the extremes land on
    opposite sides of the delayed arrival."""
    monkeypatch.delenv("REPRO_SIM_DIGEST", raising=False)
    lose, _ = _race(TIMEOUTS[0])
    win, _ = _race(TIMEOUTS[-1])
    assert lose == "timeout"
    assert win == "posted"
