"""``Proc.run_script``: a blocking library call written as a generator runs
the same schedule as the same call written with ``sleep``/``block`` — same
events, same order, same clock — and parks its fiber once."""

import threading
import traceback

import pytest

from repro.sim.engine import Engine, Site
from repro.mpi.request import Request
from repro.sim.sync import Counter, SimEvent
from repro.util.errors import SimTimeoutError, SimulationError


# -- one toy protocol, three ways ------------------------------------------
#
# Rank r of P: sleep, inject a message to the right neighbour (a ``call_in``
# callback fires the neighbour's ``inbox``), sleep again, wait for its own
# inbox, then a nested exchange (sleep + wait on an event the *left*
# neighbour fires from its own body), then park until the right neighbour
# wakes it (having left its name on the board).


class _Board:
    def __init__(self, engine, n):
        self.engine = engine
        self.n = n
        self.inbox = [SimEvent(f"inbox{r}") for r in range(n)]
        self.token = [SimEvent(f"token{r}") for r in range(n)]
        self.parked = [SimEvent(f"parked{r}") for r in range(n)]
        self.woken_by = [None] * n
        self.procs = []


def _blocking(board, rank):
    def body(p):
        engine, n = board.engine, board.n
        right = (rank + 1) % n
        seen = []
        p.sleep(1e-6 * (rank + 1))
        engine.call_in(0.5e-6, lambda: board.inbox[right].fire(rank))
        p.sleep(2e-6)
        seen.append((engine.now, board.inbox[rank].wait(p)))
        seen.append(_exchange_blocking(board, p, rank, right))
        # Say we are about to park, then park: nothing runs between the
        # two, so the waker finds us blocked.
        board.parked[rank].fire()
        p.block("toy.park")
        seen.append((engine.now, board.woken_by[rank]))
        return seen

    return body


def _waker(board, rank):
    """Wakes ``rank``'s left neighbour, signed, once it has parked."""
    left = (rank - 1) % board.n

    def body(p):
        board.parked[left].wait(p)
        board.woken_by[left] = ("from", rank)
        board.procs[left].wake()

    return body


def _exchange_blocking(board, p, rank, right):
    p.sleep(0.25e-6)
    board.token[right].fire(("token", rank))
    value = board.token[rank].wait(p)
    return board.engine.now, value


def _script(board, rank):
    def steps(p):
        engine, n = board.engine, board.n
        right = (rank + 1) % n
        seen = []
        yield 1e-6 * (rank + 1)
        engine.call_in(0.5e-6, lambda: board.inbox[right].fire(rank))
        yield 2e-6
        now = engine.now
        yield board.inbox[rank]  # a wait: the event itself, then its outcome
        seen.append((now, board.inbox[rank]._outcome()))
        seen.append((yield from _exchange_steps(board, p, rank, right)))
        board.parked[rank].fire()
        yield "toy.park"
        seen.append((engine.now, board.woken_by[rank]))
        return seen

    return steps


def _exchange_steps(board, p, rank, right):
    yield 0.25e-6
    board.token[right].fire(("token", rank))
    value = yield from board.token[rank]._wait_steps()
    return board.engine.now, value


def _interpret(p, script):
    """The definition of a script, executed with the blocking primitives: a
    yielded number is ``sleep``, a yielded reason (a string, or a template
    that formats one when read) is ``block``, and a yielded event is a wait
    for it: unless it is set, join its waiters and ``block`` on it."""
    while True:
        try:
            step = next(script)
        except StopIteration as stop:
            return stop.value
        if isinstance(step, Site):
            if not step.is_set:
                step._waiters = [*step._waiters, p]
                p.block(step)
        elif isinstance(step, (str, tuple)):
            p.block(step)
        else:
            p.sleep(step)


def _run_toy(n, style):
    engine = Engine()
    engine.enable_order_digest()
    board = _Board(engine, n)
    for rank in range(n):
        steps = _script(board, rank)
        body = {
            "blocking": _blocking(board, rank),
            "script": lambda p, steps=steps: p.run_script(steps(p)),
            "interpreted": lambda p, steps=steps: _interpret(p, steps(p)),
        }[style]
        board.procs.append(engine.spawn(body, name=f"rank{rank}"))
    for rank in range(n):
        engine.spawn(_waker(board, rank), name=f"waker{rank}")
    engine.run()
    return {
        "digest": engine.order_digest(),
        "events": engine.events_executed,
        "now": engine.now.hex(),
        "results": [p.result for p in board.procs],
    }, engine.handoffs


@pytest.mark.parametrize("n", [2, 16])
def test_script_runs_the_schedule_of_the_blocking_calls(n):
    blocking, blocking_handoffs = _run_toy(n, "blocking")
    script, script_handoffs = _run_toy(n, "script")
    interpreted, _ = _run_toy(n, "interpreted")
    assert script == blocking == interpreted
    # Every rank was woken by its right neighbour, last.
    for rank, seen in enumerate(script["results"]):
        assert seen[0][1] == (rank - 1) % n
        assert seen[1][1] == ("token", (rank - 1) % n)
        assert seen[2][1] == ("from", (rank + 1) % n)
    # Same events; fewer of them cost a context switch.
    assert script_handoffs < blocking_handoffs


def test_lone_script_of_a_thousand_sleeps_never_switches():
    engine = Engine()

    def steps():
        for _ in range(1000):
            yield 1e-6
        return engine.now

    proc = engine.spawn(lambda p: p.run_script(steps()))
    engine.run()
    assert engine.events_executed == 1001  # the start-up resume + 1,000 sleeps
    assert proc.result == engine.now == pytest.approx(1e-3)
    assert engine.handoffs == 0  # inline-clock path, all on the one fiber


def test_script_yields_nothing_for_a_cost_the_machine_does_not_charge():
    engine = Engine()

    def steps():
        yield None
        yield 0.0
        return "done"

    proc = engine.spawn(lambda p: p.run_script(steps()))
    engine.run()
    assert proc.result == "done" and engine.now == 0.0
    assert engine.events_executed == 1


def _timeout_text(use_script):
    engine = Engine()

    def steps():
        yield 1.0
        yield 5.0

    def body(p):
        if use_script:
            p.run_script(steps())
        else:
            p.sleep(1.0)
            p.sleep(5.0)

    engine.spawn(body, name="a")
    engine.spawn(body, name="b")
    with pytest.raises(SimTimeoutError) as exc_info:
        engine.run(deadline=3.0)
    assert engine.now == 3.0
    return str(exc_info.value)


def test_deadline_reads_the_same_from_a_script():
    text = _timeout_text(use_script=True)
    assert text == _timeout_text(use_script=False)
    assert "sleep(5)" in text


# -- refusals ----------------------------------------------------------------


@pytest.mark.parametrize("own_fiber", [True, False], ids=["own-fiber", "other-fiber"])
@pytest.mark.parametrize("op", ["sleep", "block", "run_script"])
def test_blocking_calls_inside_a_script_are_refused(op, own_fiber):
    """They would run the dispatch loop on whichever fiber is driving the
    script and deadlock the run; the refusal ends it with what to do."""
    engine = Engine()

    def steps(p):
        if not own_fiber:
            yield 2.0  # resumed by the other process's fiber, parked at t=1
        if op == "sleep":
            p.sleep(1.0)
        elif op == "block":
            p.block("nested")
        else:
            p.run_script(iter(()))
        yield 1.0

    engine.spawn(lambda p: p.run_script(steps(p)), name="scripted")
    engine.spawn(lambda p: (p.sleep(1.0), p.sleep(3.0)), name="other")
    with pytest.raises(SimulationError, match="yield it / use yield from") as exc_info:
        engine.run()
    assert f"{op}() called from inside a script of 'scripted'" in str(exc_info.value)


def test_negative_duration_from_a_script_is_refused():
    engine = Engine()

    def steps():
        yield -1.0

    engine.spawn(lambda p: p.run_script(steps()))
    with pytest.raises(SimulationError, match="negative time -1.0"):
        engine.run()


# -- failures ----------------------------------------------------------------


def test_error_raised_under_another_fiber_surfaces_on_the_owner():
    engine = Engine()
    threads = {}

    def failing_segment():
        threads["segment"] = threading.get_ident()
        raise ValueError("from the script")

    def steps():
        yield 2.0
        failing_segment()

    def owner(p):
        threads["owner"] = threading.get_ident()
        with pytest.raises(ValueError, match="from the script") as exc_info:
            p.run_script(steps())
        frames = [f.name for f in traceback.extract_tb(exc_info.value.__traceback__)]
        p.sleep(1.0)  # the process carries on: the error was the call's, not the run's
        return frames, engine.now

    def other(p):
        threads["other"] = threading.get_ident()
        p.sleep(1.0)
        p.sleep(3.0)  # parks at t=1: this fiber dispatches the owner's resume at t=2

    proc = engine.spawn(owner)
    engine.spawn(other)
    engine.run()
    frames, resumed_at = proc.result
    assert threads["segment"] == threads["other"] != threads["owner"]
    assert frames[0] == "owner" and frames[-2:] == ["steps", "failing_segment"]
    assert resumed_at == 3.0


def test_unwinding_a_parked_script_closes_it():
    """Teardown (here: the other process fails) unwinds the parked fiber;
    the script's ``finally`` blocks run, as a blocking call's would."""
    engine = Engine()
    closed = []

    def steps():
        try:
            yield "never woken"
        finally:
            closed.append(engine.now)

    def failing(p):
        p.sleep(1.0)
        raise RuntimeError("boom")

    engine.spawn(lambda p: p.run_script(steps()))
    engine.spawn(failing)
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    assert closed == [1.0]


# -- user code in the middle of a library call --------------------------------


def test_yielded_callable_runs_on_the_owners_fiber_and_may_block():
    """A script yields a callable for code that may park — user code a
    library call has to run part-way through. It runs on the script's own
    fiber, whoever was driving, as if no script were open: it may sleep,
    block and run scripts of its own; it costs no event and no virtual time
    itself; the script carries on after it."""
    engine = Engine()
    threads, log = {}, []
    gate = SimEvent("gate")

    def user_code(p):
        threads["callable"] = threading.get_ident()
        log.append(("in", engine.now))
        p.sleep(0.5)
        gate.wait(p)  # a nested script, and a park
        log.append(("out", engine.now))

    def steps(p):
        yield 2.0  # resumed by the other fiber, parked since t=1
        threads["segment"] = threading.get_ident()
        before = engine.events_executed
        yield lambda: (log.append(("events", engine.events_executed - before)), user_code(p))
        log.append(("after", engine.now))
        yield 1.0
        return "done"

    def owner(p):
        threads["owner"] = threading.get_ident()
        return p.run_script(steps(p))

    def other(p):
        threads["other"] = threading.get_ident()
        p.sleep(1.0)
        p.sleep(2.0)  # parks at t=1: drives the owner's resume at t=2
        gate.fire()
        p.sleep(5.0)

    proc = engine.spawn(owner)
    engine.spawn(other)
    engine.run()
    assert proc.result == "done" and proc._script is None and proc._script_call is None
    assert threads["segment"] == threads["other"] != threads["owner"]
    assert threads["callable"] == threads["owner"]
    # In at t=2 with no event in between; out when the gate opened (t=3);
    # then the script's last second.
    assert log == [("events", 0), ("in", 2.0), ("out", 3.0), ("after", 3.0)]
    assert engine.now == 8.0


def test_yielded_callable_on_the_owners_own_fiber_costs_no_switch():
    engine = Engine()
    seen = []

    def steps():
        yield 1.0
        yield lambda: seen.append(engine.now)
        yield 1.0

    engine.spawn(lambda p: p.run_script(steps()))
    engine.run()
    assert seen == [1.0] and engine.now == 2.0 and engine.handoffs == 0


def test_failing_callable_ends_the_call_and_closes_the_script():
    engine = Engine()
    closed = []

    def boom():
        raise ValueError("from user code")

    def steps():
        try:
            yield 1.0
            yield boom
            yield 1.0
        finally:
            closed.append(engine.now)

    def owner(p):
        with pytest.raises(ValueError, match="from user code"):
            p.run_script(steps())
        p.sleep(1.0)  # the process carries on; no script is left open
        return engine.now

    proc = engine.spawn(owner)
    engine.run()
    assert closed == [1.0] and proc.result == 2.0 and proc._script is None


class _Spy:
    """A template argument that counts how often it is formatted."""

    def __init__(self):
        self.reads = 0

    def __str__(self):
        self.reads += 1
        return "spy"


def test_a_parked_wait_formats_no_reason():
    """A wait formats nothing until a report reads it: a request, an event
    and a counter parked on hold what names the wait, and only
    ``Proc.block_reason`` formats it. The spy sits in each one's template
    arguments, and each waker reads the parked process's reason before it
    wakes it."""
    engine = Engine()
    spy = _Spy()
    seen = []

    def body(p):
        req, ev, counter = Request("isend(dst=%s)", p, spy), SimEvent(spy), Counter(spy)

        def after_a_read(wake):
            def waker():
                before = spy.reads
                seen.append((before, p.block_reason, spy.reads))
                wake()

            return waker

        def steps():
            engine.call_in(1e-6, after_a_read(req.fire))
            yield req
            req._outcome()
            engine.call_in(1e-6, after_a_read(ev.fire))
            yield from ev._wait_steps()
            engine.call_in(1e-6, after_a_read(counter.add))
            yield from counter._wait_geq_steps(p, 1)

        p.run_script(steps())

    engine.spawn(body)
    engine.run()
    assert seen == [
        (0, "wait(req:isend(dst=spy))", 1),
        (1, "wait(spy)", 2),
        (2, "wait_geq(spy, 1)", 3),
    ]
