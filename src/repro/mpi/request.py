"""MPI request objects: nonblocking-operation completion handles.

A :class:`Request` is the :class:`~repro.sim.sync.SimEvent` the library
fires when the operation completes, and a posted receive is its request.
Waiting on one blocks the calling image until then; because the library
progresses communication asynchronously (callbacks on the event heap), no
polling loop is needed at the MPI level.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.mpi.status import Status
from repro.sim import irhook as _irhook
from repro.sim.engine import Proc
from repro.sim.sync import SimEvent


class Request(SimEvent):
    """Completion handle for a nonblocking MPI operation."""

    __slots__ = ("_kind", "_kind_args", "_proc")

    def __init__(self, kind: str, proc: Proc, *kind_args):
        #: The operation's name, or a ``%`` template for it plus arguments:
        #: only diagnostics read the name, so :attr:`kind` formats it then
        #: and the per-op path does not.
        self._kind = kind
        self._kind_args = kind_args
        self._proc = proc
        self.is_set = False
        self.value = self.error = None  # error: see SimEvent._fail
        self._waiters = self._callbacks = ()  # as SimEvent's

    @property
    def status(self) -> Status:
        """MPI_Status, built when read: empty for an operation that moves
        no message (RMA, a nonblocking collective); a two-sided request's
        is its message's source, tag and count (``repro.mpi.p2p``)."""
        return Status()

    @property
    def kind(self) -> str:
        return self._kind % self._kind_args

    @property
    def completed(self) -> bool:
        return self.is_set

    # -- user side --------------------------------------------------------

    def wait(self) -> Status:
        """Block until the operation completes; returns its status. In a
        script, the wait is ``yield req`` then ``req._outcome()``
        (:class:`~repro.sim.sync.SimEvent`), which builds no status: a
        caller that wants one reads :attr:`status` after it."""
        self._proc.run_script(self._wait_steps())
        return self.status

    def _wait_reason(self) -> str:
        return f"wait(req:{self._kind % self._kind_args})"

    def test(self) -> tuple[bool, Status | None]:
        """Nonblocking completion check."""
        if self.is_set:
            if self.error is not None:
                raise self._raised_error()
            return True, self.status
        return False, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request {self.kind} {'done' if self.completed else 'pending'}>"


def wait_all(requests: Iterable[Request]) -> list[Status]:
    """MPI_WAITALL: block until every request completes."""
    requests = list(requests)
    if not requests:
        return []
    return requests[0]._proc.run_script(wait_all_steps(requests))


def wait_all_steps(requests: Iterable[Request]):
    """:func:`wait_all` as a script (see ``Proc.run_script``)."""
    requests = list(requests)
    for req in requests:
        yield req
        req._outcome()
    return [req.status for req in requests]


def recorded_steps(obs, engine, rank: int, kind: str, nbytes: int, steps):
    """``steps`` (one blocking call's script), then its ``kind`` record of
    ``nbytes`` and the virtual time it took in ``obs`` (the run's metrics).
    Callers skip the wrapper altogether when metrics are off."""
    t0 = engine.now
    out = yield from steps
    obs.record(rank, kind, nbytes, engine.now - t0)
    return out
