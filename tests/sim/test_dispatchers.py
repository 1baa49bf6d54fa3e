"""The dispatcher's contract: wall-clock work on the engine must never
change *which* schedule executes, only how fast the host executes it.

``GOLDEN`` fingerprints fixed runs: the executed event order
(``Engine.order_digest``), the executed event count, the virtual makespan
and the profiler category totals (floats as ``float.hex()``, so equality
is bit-exact), or for runs that die, the error, the failed images and
the state at death. The values were recorded at commit 127ef01, where the
scheduler-thread dispatcher, the baton-passing dispatcher and the 2-shard
windowed dispatcher all produced them bit for bit; the first and last were
then deleted. Any future "optimization" that reorders events — even among
same-time ties — fails here rather than silently perturbing figures.

The two fault rows (``ra-crash*``) run the reliable transport and were
re-recorded once since: its retry timer is now cancelled when the ack
arrives instead of firing as a no-op, so those runs execute fewer
callbacks (and CAF-MPI's ``ra-crash`` no longer ends at a dead timer);
the profiler totals did not move. CAF-GASNet's ``ra-crash-drops`` was
re-recorded once more when a team wait began to fail on a dead member: it
used to park in the team barrier until the deadlock report, and now ends
at the crash with ``GasnetProcFailedError``, as the CAF-MPI row does.
"""

import errno
import os

import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan
from repro.sim.network import MachineSpec

RA_KW = dict(table_bits_per_image=6, updates_per_image=64, batches=2)
#: row -> (program, images, program kwargs, FaultPlan kwargs or None)
ROWS = {
    "ra": (run_randomaccess, 4, RA_KW, None),
    "fft": (run_fft, 8, dict(m=1 << 10), None),
    "cgpop": (run_cgpop, 8, dict(ny=16, nx=16, max_iter=8), None),
    "ra-crash": (run_randomaccess, 8, RA_KW, dict(crashes=[(5, 2e-4)])),
    "ra-crash-drops": (
        run_randomaccess, 8, RA_KW, dict(drop_rate=0.05, crashes=[(5, 2e-4)]),
    ),
}
GOLDEN = {
    ("ra", "mpi"): (
        "f33ad3ac50b403e26a0a9e79637fe49c", 944, "0x1.792236413b142p-14",
        {
            "barrier": "0x1.1aee54173f9e2p-15",
            "coarray_write": "0x1.0c6f7a0b5eda0p-15",
            "computation": "0x1.12e0be826d800p-25",
            "event_notify": "0x1.0ced7662aff54p-14",
            "event_wait": "0x1.2adbaf21239c0p-16",
        },
    ),
    ("ra", "gasnet"): (
        "2928f96e7c3b173ea9ee19543f125f83", 895, "0x1.4e58417960d90p-15",
        {
            "barrier": "0x1.64c02f40c6808p-16",
            "coarray_write": "0x1.4a04deb9e211ep-16",
            "computation": "0x1.12e0be826d400p-25",
            "event_notify": "0x1.421f5f40d836ep-16",
            "event_wait": "0x1.cb341e428e1e8p-17",
        },
    ),
    ("fft", "mpi"): (
        "3859c3dc1e010b772cc9cedd3d5d483e", 1584, "0x1.2cb6fe6a8fd24p-14",
        {
            "alltoall": "0x1.58a337db971dap-12",
            "barrier": "0x1.8d8d8b8822be8p-15",
            "computation": "0x1.0a49b88e5a040p-17",
        },
    ),
    ("fft", "gasnet"): (
        "1b6fa2b5bbc5ed1e078686687fc72686", 1893, "0x1.50b7fe5e95365p-15",
        {
            "alltoall": "0x1.1c5663d0cbcb7p-12",
            "barrier": "0x1.06cc5e23321a7p-15",
            "computation": "0x1.0a49b88e59ff8p-17",
        },
    ),
    ("cgpop", "mpi"): (
        "77952ffa4243b9ce4a00851957a80070", 6218, "0x1.30641295cb764p-12",
        {
            "barrier": "0x1.9596d599faf14p-14",
            "computation": "0x1.285a4d649df00p-18",
            "event_notify": "0x1.d4e3bef91c02cp-12",
            "event_wait": "0x1.df877898d7106p-13",
        },
    ),
    ("cgpop", "gasnet"): (
        "9da564497274baf03409f53505f36ff3", 6417, "0x1.992a9fd2afa67p-13",
        {
            "barrier": "0x1.0aa3ea4cdcce4p-14",
            "computation": "0x1.285a4d649e040p-18",
            "event_notify": "0x1.bcc7e0c39385fp-13",
            "event_wait": "0x1.36a09a894d3dep-13",
        },
    ),
    ("ra-crash", "mpi"): (
        "3e5963b8f4f7411e3939eb3e87fc88e1", 3657, "0x1.a36e2eb1c432dp-13",
        {
            "barrier": "0x1.8df49fcf93a40p-14",
            "coarray_write": "0x1.92a737110e45cp-14",
            "computation": "0x1.12e0be826c000p-24",
            "event_notify": "0x1.31b9c1e39b264p-12",
            "event_wait": "0x1.c117af4097410p-15",
        },
    ),
    ("ra-crash", "gasnet"): (
        "83b4e4cbd4fa24f76536bcf8110af71c", 3432, "0x1.a36e2eb1c432dp-13",
        {
            "barrier": "0x1.0a4f7292520b0p-14",
            "coarray_write": "0x1.ef4ee3486fbcap-15",
            "computation": "0x1.12e0be826dc00p-24",
            "event_notify": "0x1.e32f0ee144538p-15",
            "event_wait": "0x1.59353f40cc6acp-15",
        },
    ),
    ("ra-crash-drops", "mpi"): (
        "MpiProcFailedError", [5],
        "bc6bacbf394050323726ed12641d524f", 155, "0x1.a36e2eb1c432dp-13",
    ),
    ("ra-crash-drops", "gasnet"): (
        "GasnetProcFailedError", [5],
        "0022daa3beb50a2ca9e8ec2deae390ab", 235, "0x1.a3a3de96f9ac3p-13",
    ),
}


def _fingerprint(row, backend):
    program, nranks, kwargs, faults = ROWS[row]
    extra = {}
    if faults is not None:
        extra = dict(faults=FaultPlan(seed=3, **faults), reliable=True, deadline=1.0)
    try:
        r = run_caf(
            program, nranks, MachineSpec(name="generic"), backend=backend,
            **extra, **kwargs,
        )
    except Exception as exc:  # noqa: BLE001 - how a run dies is pinned too
        cl = exc.caf_cluster
        return (
            type(exc).__name__, sorted(cl.failed_ranks), cl.engine.order_digest(),
            cl.engine.events_executed, cl.elapsed.hex(),
        )
    totals = {c: r.profiler.total(c).hex() for c in r.profiler.categories()}
    eng = r.cluster.engine
    return eng.order_digest(), eng.events_executed, r.elapsed.hex(), totals


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_dispatch_order_matches_golden_digest(monkeypatch, backend):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    for row in ROWS:
        assert _fingerprint(row, backend) == GOLDEN[row, backend], row


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="host has no thread-affinity calls"
)
@pytest.mark.parametrize(
    "refused, error, stays_pinned",
    [("sched_setaffinity", OSError, False), ("sched_setscheduler", PermissionError, True)],
)
def test_refused_placement_runs_the_same_schedule(monkeypatch, refused, error, stays_pinned):
    """Pin first, batch only if the pin held: a host that refuses the pin
    leaves the fibers exactly as the caller is (batch without co-location
    can be slower than nothing); one that refuses only the policy leaves
    them pinned. Either way nothing virtual moves."""
    probe = Engine()
    probe.spawn(lambda p: None)
    probe.run()
    if probe.fiber_cpu is None:
        pytest.skip("host cannot co-locate the fibers")
    caller = os.sched_getaffinity(0), os.sched_getscheduler(0)

    def refuse(*_args):
        raise error(errno.EPERM, "refused by the test")

    monkeypatch.setattr(os, refused, refuse)
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    seen = []

    def program(img, **kwargs):
        seen.append((os.sched_getaffinity(0), os.sched_getscheduler(0)))
        return run_randomaccess(img, **kwargs)

    r = run_caf(program, 4, MachineSpec(name="generic"), backend="mpi", **RA_KW)
    eng = r.cluster.engine
    assert (eng.order_digest(), eng.events_executed, r.elapsed.hex()) == (
        GOLDEN["ra", "mpi"][:3]
    )
    assert eng.fiber_policy == "normal"
    if stays_pinned:
        assert eng.fiber_cpu in caller[0]
        assert seen == [({eng.fiber_cpu}, caller[1])] * 4
    else:
        assert eng.fiber_cpu is None
        assert seen == [caller] * 4


def test_bare_engine_schedule_matches_golden():
    eng = Engine()

    def ping(p):
        for _ in range(5):
            p.sleep(0.25)

    def pong(p):
        for _ in range(4):
            p.sleep(0.3)

    eng.spawn(ping)
    eng.spawn(pong)
    eng.enable_order_digest()
    eng.run()
    assert (eng.events_executed, eng.order_digest(), eng.now) == (
        11, "a67b2203b7afae626e022a51b1b03a63", 1.25,
    )


def test_duplicate_wake_dropped_at_call_site():
    """A second wake of the same block generation must not allocate a heap
    event — it is dropped where it happens, and counted."""
    eng = Engine()
    waiter_box = []
    resumed_at = []

    def waiter(p):
        waiter_box.append(p)
        p.block("waiting")
        resumed_at.append(eng.now)
        p.block("waiting again")
        resumed_at.append(eng.now)

    def waker(p):
        p.sleep(1.0)
        w = waiter_box[0]
        before = len(eng._heap) + len(eng._due)
        w.wake()
        after_one = len(eng._heap) + len(eng._due)
        w.wake()  # same generation: dropped, no event
        after_two = len(eng._heap) + len(eng._due)
        assert after_one == before + 1
        assert after_two == after_one
        p.sleep(1.0)
        w.wake()

    eng.spawn(waiter, name="waiter")
    eng.spawn(waker, name="waker")
    eng.run()
    assert resumed_at == [1.0, 2.0]  # one resume per block, not per wake
    assert eng.stale_wakes_dropped == 1


def test_stale_wake_counter_starts_at_zero():
    eng = Engine()

    def body(p):
        p.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert eng.stale_wakes_dropped == 0


def test_inline_sleep_bypasses_heap_on_fast_path():
    """A sole-runnable process's sleep advances the clock in place: no heap
    entry, no context switch, but the event still counts."""
    eng = Engine()
    heap_sizes = []

    def body(p):
        for _ in range(3):
            heap_sizes.append(len(eng._heap) + len(eng._due))
            p.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert heap_sizes == [0, 0, 0]
    assert eng.now == 3.0
    # initial resume + three sleeps
    assert eng.events_executed == 4
