"""Synchronization primitives built on the engine's block/wake protocol.

Because scheduling is cooperative (nothing runs between a check and the
subsequent block), these primitives need no locks; they only need to keep
their waiter lists consistent. Also here, for every layer's groups: the
one agreement round (:func:`agree_steps`) and the colour/key partition of
a split (:func:`split_groups`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from typing import Any

from repro.sim import irhook as _irhook
from repro.sim.engine import Proc


class SimEvent:
    """A one-shot level-triggered flag processes can wait on.

    Optionally carries a value set at fire time (used for completion
    handles that deliver data, e.g. fetched RMA results), or the error it
    completed in (:meth:`_fail`), which its waiter re-raises.
    """

    #: ``_ir_id`` is the IR recorder's object id, set at first record.
    __slots__ = ("label", "is_set", "value", "error", "_waiters", "_callbacks", "_ir_id")

    def __init__(self, label: str = "event"):
        self.label = label
        self.is_set = False
        self.value: Any = None
        #: Set by :meth:`_fail` — the ULFM model where a pending operation
        #: involving a failed process completes in error instead of hanging.
        self.error: Exception | None = None
        self._waiters: list[Proc] = []
        self._callbacks: list[Callable[[], None]] = []

    def fire(self, value: Any = None) -> None:
        """Set the flag, wake every waiter and run subscribed callbacks. Idempotent."""
        if self.is_set:
            return
        rec = _irhook.RECORDER
        if rec is not None:
            # The IR has one dependence primitive: a fired event is a
            # counter that reached 1.
            rec.on_add(self, 1)
        self.is_set = True
        self.value = value
        if self._waiters:  # set: nobody joins the list any more
            for proc in self._waiters:
                proc.wake()
            self._waiters.clear()
        if self._callbacks:  # nothing is allocated when nothing subscribed
            callbacks, self._callbacks = self._callbacks, []
            for cb in callbacks:
                cb()

    def _fail(self, exc: Exception) -> None:
        """Complete in error (idempotent, scheduler context)."""
        if self.is_set:
            return
        self.error = exc
        self.fire()

    def _raised_error(self) -> Exception:
        """A copy of :attr:`error` to raise. The stored one never carries a
        traceback: its frames hold this event (and whatever holds it), so
        the pair would be a reference cycle outliving the run."""
        error = self.error
        raised = type(error).__new__(type(error), *error.args)
        raised.__dict__.update(error.__dict__)
        return raised

    def subscribe(self, cb: Callable[[], None]) -> None:
        """Run ``cb`` when the event fires (immediately if already set)."""
        if self.is_set:
            cb()
        else:
            self._callbacks.append(cb)

    def wait(self, proc: Proc) -> Any:
        """Block ``proc`` until the flag is set; returns the fired value, or
        raises the error the event failed with."""
        return proc.run_script(self._wait_steps(proc))

    def _wait_steps(self, proc: Proc):
        """:meth:`wait` as a script (see :meth:`Proc.run_script`)."""
        while not self.is_set:
            self._waiters.append(proc)
            yield f"wait({self.label})"
            if proc in self._waiters:  # woken by someone else's stale wake
                self._waiters.remove(proc)
        rec = _irhook.RECORDER
        if rec is not None:
            # Recorded at wait *exit*: the op's id order is live completion
            # order, which is how replay re-resolves same-time wake races.
            rec.on_wait_geq(self, 1)
        if self.error is not None:
            raise self._raised_error()
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimEvent {self.label} set={self.is_set}>"


class Counter:
    """A waitable monotone counter (CAF events are counting semaphores)."""

    def __init__(self, label: str = "counter", initial: int = 0):
        self.label = label
        self.count = initial
        self._waiters: list[Proc] = []

    def add(self, n: int = 1) -> None:
        rec = _irhook.RECORDER
        if rec is not None:
            rec.on_add(self, n)
        self.count += n
        if self._waiters:  # nothing is allocated when nothing waits
            waiters, self._waiters = self._waiters, []
            for proc in waiters:
                proc.wake()

    def wait_geq(self, proc: Proc, threshold: int, reason: str | None = None) -> None:
        """Block until ``count >= threshold`` (does not consume)."""
        proc.run_script(self._wait_geq_steps(proc, threshold, reason))

    def _wait_geq_steps(self, proc: Proc, threshold: int, reason: str | None = None):
        """:meth:`wait_geq` as a script (see :meth:`Proc.run_script`)."""
        while self.count < threshold:
            self._waiters.append(proc)
            yield reason or f"wait_geq({self.label}, {threshold})"
            if proc in self._waiters:
                self._waiters.remove(proc)
        rec = _irhook.RECORDER
        if rec is not None:
            rec.on_wait_geq(self, threshold)


class Channel:
    """An unbounded FIFO mailbox with blocking receive: a deque whose
    arrivals a :class:`Counter` counts, so the n-th ``get`` waits for the
    count to reach n."""

    def __init__(self, label: str = "channel"):
        self.label = label
        self._items: deque[Any] = deque()
        self._puts = Counter(label)
        self._gets = 0

    def put(self, item: Any) -> None:
        self._items.append(item)
        self._puts.add(1)

    def get(self, proc: Proc) -> Any:
        """Blocking receive of the oldest item."""
        return proc.run_script(self._get_steps(proc))

    def _get_steps(self, proc: Proc):
        """:meth:`get` as a script (see :meth:`Proc.run_script`)."""
        self._gets += 1
        yield from self._puts._wait_geq_steps(proc, self._gets, f"get({self.label})")
        return self._items.popleft()


def unless_failed(
    satisfied: Callable[[], bool],
    failed: set[int],
    peers: Iterable[int] | Callable[[], Iterable[int]],
    error: Callable[..., Exception],
    *args: Any,
) -> Callable[[], bool]:
    """``satisfied`` as a wait's predicate under every layer's failure rule:
    once the wait is unsatisfied and depends on a failed image — the first
    world rank of ``peers`` (or of ``peers()``, for a wait whose dependence
    shrinks as it progresses) in ``failed`` — it raises ``error(rank,
    *args)``. What already arrived still counts. Failure listeners wake
    every parked wait, so each reruns its predicate at the crash's virtual
    time."""

    # Bound as defaults, not closure cells: one allocation per wait, which
    # every fault-free wait pays.
    def pred(satisfied=satisfied, failed=failed, peers=peers, error=error, args=args) -> bool:
        if satisfied():
            return True
        if failed:
            ranks = peers() if callable(peers) else peers
            dead = next((w for w in ranks if w in failed), None)
            if dead is not None:
                raise error(dead, *args)
        return False

    return pred


def agree_steps(
    boards: dict[Any, dict[str, Any]],
    key: Any,
    me: int,
    contribution: Any,
    combine: Callable[[dict[int, Any]], Any],
    barrier_steps: Callable[[], Any],
):
    """One agreement round of a group, as a script: every member deposits
    its contribution on ``boards[key]``, a barrier makes all of them
    visible, the first member out builds the result once — ``combine({me:
    contribution})`` — and a second barrier keeps everyone else from reading
    before it exists. ``barrier_steps()`` is the group's barrier script;
    every member must pass the same ``key`` (a per-group sequence number
    advanced identically, because the call is collective)."""
    board = boards.setdefault(key, {"args": {}})
    board["args"][me] = contribution
    yield from barrier_steps()
    if "result" not in board:
        board["result"] = combine(board.pop("args"))
    yield from barrier_steps()
    return board["result"]


def split_groups(args: dict[int, tuple[int, int]]) -> list[list[int]]:
    """The groups of a colour/key split (``MPI_COMM_SPLIT``, CAF 2.0
    ``team_split``): ``args`` maps each member to its ``(colour, key)``;
    the result lists, by ascending colour, each group's members ordered by
    key, ties by member. A negative colour joins no group."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for member, (color, key) in args.items():
        if color >= 0:
            groups.setdefault(color, []).append((key, member))
    return [[member for _key, member in sorted(groups[c])] for c in sorted(groups)]
