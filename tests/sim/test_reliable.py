"""Reliable delivery over a lossy fabric: acks, retransmits, dedup."""

import math

from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan
from repro.sim.network import MachineSpec, NetFabric
from repro.sim.reliable import ReliableTransport


def make_spec(**kw):
    defaults = dict(
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
    defaults.update(kw)
    return MachineSpec(**defaults)


def run_reliable(plan, n, nbytes=1000, **transport_kw):
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec())
    fabric.faults = plan
    fabric.reliable = ReliableTransport(fabric, **transport_kw)
    delivered = []

    def body(p):
        for i in range(n):
            r = fabric.send(
                0, 1, nbytes, lambda i=i: delivered.append(i)
            )
            assert r == math.inf
        p.sleep(60.0)  # long enough for every backoff schedule to finish

    eng.spawn(body)
    eng.run()
    return fabric, delivered


def test_lossless_fabric_delivers_once_without_retransmits():
    fabric, delivered = run_reliable(None, 10)
    assert sorted(delivered) == list(range(10))
    assert fabric.reliable.sends == 10
    assert fabric.reliable.retransmits == 0
    assert fabric.reliable.duplicates_filtered == 0


def test_drops_are_recovered_exactly_once():
    plan = FaultPlan(seed=11, drop_rate=0.3)
    fabric, delivered = run_reliable(plan, 50)
    assert sorted(delivered) == list(range(50))  # every message, exactly once
    assert fabric.reliable.retransmits > 0
    assert fabric.dropped > 0


def test_fabric_duplicates_are_filtered():
    plan = FaultPlan(seed=11, dup_rate=1.0)
    fabric, delivered = run_reliable(plan, 20)
    assert sorted(delivered) == list(range(20))
    assert fabric.reliable.duplicates_filtered > 0


def test_mixed_faults_still_exactly_once():
    plan = FaultPlan(
        seed=13, drop_rate=0.15, corrupt_rate=0.1, dup_rate=0.15, delay_rate=0.2
    )
    fabric, delivered = run_reliable(plan, 60)
    assert sorted(delivered) == list(range(60))


def test_reliable_run_is_deterministic():
    def once():
        plan = FaultPlan(seed=17, drop_rate=0.25, dup_rate=0.1)
        fabric, delivered = run_reliable(plan, 30)
        return (
            delivered,
            fabric.engine.now,
            fabric.reliable.retransmits,
            fabric.dropped,
        )

    assert once() == once()


def test_total_loss_gives_up_after_max_retries():
    plan = FaultPlan(seed=11, drop_rate=1.0)
    fabric, delivered = run_reliable(plan, 3, max_retries=4)
    assert delivered == []
    assert fabric.reliable.gave_up == 3
    # initial attempt + 4 retries per message
    assert fabric.reliable.retransmits == 3 * 4


def test_give_up_invokes_failure_hook_with_the_dead_pair():
    plan = FaultPlan(seed=11, drop_rate=1.0)
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec())
    fabric.faults = plan
    fabric.reliable = ReliableTransport(fabric, max_retries=3)
    gave_up = []
    fabric.reliable.on_give_up = lambda src, dst: gave_up.append((src, dst))

    def body(p):
        fabric.send(0, 1, 500, lambda: None)
        p.sleep(60.0)

    eng.spawn(body)
    eng.run()
    assert gave_up == [(0, 1)]
    assert fabric.reliable.gave_up == 1


def test_a_dead_sender_stops_retransmitting():
    """The sender dies with a frame unacked: its retries stop there, so it
    never gives up on (and gets declared failed) a live receiver."""
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec())
    fabric.faults = FaultPlan(seed=11, drop_rate=1.0)
    fabric.reliable = ReliableTransport(fabric, max_retries=3)
    gave_up = []
    fabric.reliable.on_give_up = lambda src, dst: gave_up.append((src, dst))

    def body(p):
        fabric.send(0, 1, 500, lambda: None)
        p.sleep(150e-6)  # past the first timeout, before the last retry
        fabric.failed_ranks.add(0)
        p.sleep(60.0)

    eng.spawn(body)
    eng.run()
    assert gave_up == []
    assert fabric.reliable.gave_up == 0
    assert fabric.reliable.retransmits == 1


def test_jittered_backoff_is_deterministic_and_bounded():
    from repro.util.rng import rank_rng

    def timed_run(**transport_kw):
        eng = Engine()
        fabric = NetFabric(eng, 2, make_spec())
        fabric.faults = FaultPlan(seed=17, drop_rate=0.25)
        fabric.reliable = ReliableTransport(fabric, **transport_kw)
        delivered = []

        def body(p):
            for i in range(30):
                fabric.send(
                    0, 1, 1000, lambda i=i: delivered.append((i, eng.now)),
                )
            p.sleep(60.0)

        eng.spawn(body)
        eng.run()
        return delivered

    first = timed_run(jitter=0.25, rng=rank_rng(5, 0, "reliable"))
    second = timed_run(jitter=0.25, rng=rank_rng(5, 0, "reliable"))
    assert first == second
    assert sorted(i for i, _ in first) == list(range(30))
    # Jitter perturbs retransmit timing relative to the unjittered schedule.
    unjittered = timed_run()
    assert sorted(i for i, _ in unjittered) == list(range(30))
    assert unjittered != first


def test_send_without_transport_degrades_to_plain_transfer():
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec())
    got = []

    def body(p):
        t = fabric.send(0, 1, 100, lambda: got.append(eng.now))
        assert math.isfinite(t)  # plain transfer: delivery time is known
        p.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert len(got) == 1


def test_delivered_state_compacts_to_low_water_mark():
    """Dedup state must not grow with message count: in-order delivery
    compacts to a cumulative low-water mark and an empty gap set."""
    fabric, delivered = run_reliable(None, 200)
    assert sorted(delivered) == list(range(200))
    low, pending = fabric.reliable._delivered[(0, 1)]
    assert low == 199
    assert pending == set()


def test_delivered_state_stays_small_under_faults():
    plan = FaultPlan(seed=7, drop_rate=0.2, dup_rate=0.2, delay_rate=0.3)
    fabric, delivered = run_reliable(plan, 150)
    assert sorted(delivered) == list(range(150))
    low, pending = fabric.reliable._delivered[(0, 1)]
    # Once every retransmit settles, all gaps are filled and drained.
    assert low == 149
    assert pending == set()
    assert fabric.reliable.duplicates_filtered > 0
