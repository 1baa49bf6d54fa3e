"""Unit tests for SimEvent, Counter and Channel."""

import pytest

from repro.sim.engine import Engine
from repro.sim.sync import Channel, Counter, SimEvent
from repro.util.errors import DeadlockError


def test_event_wait_before_fire():
    eng = Engine()
    ev = SimEvent("ev")
    got = []

    def waiter(p):
        got.append(ev.wait(p))

    def firer(p):
        p.sleep(2.0)
        ev.fire("payload")

    eng.spawn(waiter)
    eng.spawn(firer)
    eng.run()
    assert got == ["payload"]


def test_event_wait_after_fire_returns_immediately():
    eng = Engine()
    ev = SimEvent("ev")
    times = []

    def firer(p):
        ev.fire(7)

    def waiter(p):
        p.sleep(5.0)
        assert ev.wait(p) == 7
        times.append(eng.now)

    eng.spawn(firer)
    eng.spawn(waiter)
    eng.run()
    assert times == [5.0]


def test_event_fire_is_idempotent():
    eng = Engine()
    ev = SimEvent("ev")

    def body(p):
        ev.fire(1)
        ev.fire(2)
        assert ev.wait(p) == 1

    eng.spawn(body)
    eng.run()


def test_event_wakes_all_waiters():
    eng = Engine()
    ev = SimEvent("ev")
    woken = []

    def waiter(p, i):
        ev.wait(p)
        woken.append(i)

    for i in range(4):
        eng.spawn(lambda p, i=i: waiter(p, i))
    eng.spawn(lambda p: (p.sleep(1.0), ev.fire())[-1])
    eng.run()
    assert sorted(woken) == [0, 1, 2, 3]


def test_event_never_fired_deadlocks():
    eng = Engine()
    ev = SimEvent("lonely")
    eng.spawn(lambda p: ev.wait(p))
    with pytest.raises(DeadlockError):
        eng.run()


def test_counter_wait_geq_does_not_consume():
    eng = Engine()
    cnt = Counter("c", initial=2)

    def body(p):
        cnt.wait_geq(p, 2)
        assert cnt.count == 2

    eng.spawn(body)
    eng.run()


def test_channel_fifo_order():
    eng = Engine()
    ch = Channel("ch")
    got = []

    def producer(p):
        for i in range(5):
            p.sleep(1.0)
            ch.put(i)

    def consumer(p):
        for _ in range(5):
            got.append(ch.get(p))

    eng.spawn(producer)
    eng.spawn(consumer)
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_two_consumers_each_get_one_item():
    eng = Engine()
    ch = Channel("ch")
    got = []

    def consumer(p, i):
        got.append((i, ch.get(p)))

    eng.spawn(lambda p: consumer(p, 0))
    eng.spawn(lambda p: consumer(p, 1))

    def producer(p):
        p.sleep(1.0)
        ch.put("first")
        p.sleep(1.0)
        ch.put("second")

    eng.spawn(producer)
    eng.run()
    assert sorted(got) == [(0, "first"), (1, "second")]
