"""The engine's event queue executes what was scheduled, less what was
cancelled, in global ``(time, seq)`` order — whatever shares a heap slot.

Seeded random programs mix process sleeps, script sleeps, callbacks at
``now`` and in the future, wakes and cancels. Durations come from a few
binary fractions and callbacks land on a coarse grid, so many pushes
coincide in time, as SPMD ranks' do: most future pushes join a run
(``Engine._runs``). Each push is keyed as the engine must order it; the
executed order must be those keys sorted."""

import collections
import random

import pytest

from repro.sim.engine import Engine
from repro.util.errors import SimTimeoutError

DURATIONS = (0.5, 1.0, 1.5)
OPS = ("sleep", "sleep", "script", "call_now", "call_later", "call_later",
       "cancel", "cancel", "block", "wake")


class _Schedule:
    """What a program scheduled, each entry keyed ``(when, seq, order)``.

    ``seq`` is the engine's next sequence number when the push is made. A
    sleep the engine advances in place takes none; it runs next, before any
    later push at its time, which its smaller ``order`` says."""

    def __init__(self, eng):
        self.eng = eng
        self.keys = {}
        self.cancelled = set()
        self.log = []
        self.joined = collections.Counter()  # time -> pushes that joined a run

    def expect(self, label, when):
        eng = self.eng
        if when != eng.now and when == eng._last_when:
            self.joined[when] += 1
        self.keys[label] = (when, eng._seq, len(self.keys))

    def expected(self, deadline=None):
        order = sorted(self.keys, key=self.keys.__getitem__)
        return [
            label for label in order
            if label not in self.cancelled
            and (deadline is None or self.keys[label][0] <= deadline)
        ]


def _random_program(seed, *, nprocs=5, steps=40, deadline=None, seen=None):
    """Run one seeded program; return its schedule and engine. ``seen``
    counts which queue shapes its cancels met."""
    rng = random.Random(seed)
    eng = Engine()
    sched = _Schedule(eng)
    seen = collections.Counter() if seen is None else seen
    pending = []  # callback tickets neither run nor cancelled
    waiters = []  # (proc, label of its resume)
    active = set(range(nprocs))  # neither finished nor blocked

    def schedule_callback(when):
        ticket = eng._seq
        sched.expect(("cb", ticket), when)

        def fire():
            sched.log.append(("cb", ticket))
            pending.remove(ticket)
            if rng.random() < 0.3:  # a callback schedules too
                schedule_callback(eng.now + rng.choice((0.0, *DURATIONS)))

        assert eng.call_at(when, fire) == ticket
        pending.append(ticket)

    def cancel(ticket):
        runs = eng._runs
        if runs.get(ticket):
            seen["run head"] += 1
        elif any(entry[1] == ticket for run in runs.values() for entry in run):
            seen["run member"] += 1
        else:
            seen["lone entry"] += 1
        last = ticket == eng._last_seq and not runs.get(ticket)
        when = sched.keys[("cb", ticket)][0]
        eng.cancel(ticket)
        pending.remove(ticket)
        sched.cancelled.add(("cb", ticket))
        if last and when > eng.now:
            # A push at the time of the slot just emptied heads a new one.
            seen["push after cancelled last"] += 1
            schedule_callback(when)

    def body(p):
        pid, k = p.pid, 0
        sched.log.append((pid, 0))

        def resume_at(when):
            nonlocal k
            k += 1
            sched.expect((pid, k), when)
            return (pid, k)

        def script():
            for d in rng.choices(DURATIONS, k=rng.randint(1, 3)):
                label = resume_at(eng.now + d)
                yield d
                sched.log.append(label)

        for _ in range(steps):
            op = rng.choice(OPS)
            if op == "sleep":
                d = rng.choice(DURATIONS)
                label = resume_at(eng.now + d)
                p.sleep(d)
                sched.log.append(label)
            elif op == "script":
                seen["script"] += 1
                p.run_script(script())
            elif op == "call_now":
                schedule_callback(eng.now)
            elif op == "call_later":
                # Half relative, half on the grid every rank shares.
                grid = float(int(eng.now)) + rng.randint(1, 3)
                schedule_callback(rng.choice((eng.now + rng.choice(DURATIONS), grid)))
            elif op == "cancel" and pending:
                cancel(rng.choice(pending))
            elif op == "block" and active - {pid}:
                k += 1
                waiters.append((p, (pid, k)))
                active.discard(pid)
                p.block("queue-order")
                sched.log.append((pid, k))
            elif op == "wake" and waiters:
                w, label = waiters.pop(0)
                sched.expect(label, eng.now)  # a wake resumes at ``now``
                active.add(w.pid)
                w.wake()
        active.discard(pid)
        for w, label in waiters:  # the last one out wakes whoever waits
            sched.expect(label, eng.now)
            active.add(w.pid)
            w.wake()
        waiters.clear()

    for pid in range(nprocs):
        eng.spawn(body)
        sched.keys[(pid, 0)] = (0.0, pid, pid - nprocs)  # the start resumes
    if deadline is None:
        eng.run()
    else:
        with pytest.raises(SimTimeoutError):
            eng.run(deadline=deadline)
    return sched, eng


SEEDS = range(24)


def test_random_schedules_execute_in_time_seq_order():
    seen = collections.Counter()
    for seed in SEEDS:
        sched, eng = _random_program(seed, seen=seen)
        assert sched.log == sched.expected(), f"seed {seed}"
        assert eng.events_executed == len(sched.log), f"seed {seed}"
    # Every queue shape the runs bring about was met, more than once.
    for shape in ("run head", "run member", "lone entry",
                  "push after cancelled last", "script"):
        assert seen[shape] >= 3, (shape, seen)


@pytest.mark.parametrize("seed", [3, 11])
def test_a_deadline_inside_a_run_executes_the_run_and_stops(seed):
    """Rerun a schedule with the watchdog set to the time of its longest
    runs: every event up to the deadline runs, the runs at it included,
    none after."""
    full, _ = _random_program(seed)
    deadline, members = full.joined.most_common(1)[0]
    assert members >= 3
    sched, eng = _random_program(seed, deadline=deadline)
    assert sched.log == sched.expected(deadline) == [
        label for label in full.log if full.keys[label][0] <= deadline
    ]
    assert eng.events_executed == len(sched.log)
    assert eng.now == deadline
