"""MPI request objects: nonblocking-operation completion handles.

A :class:`Request` wraps a :class:`~repro.sim.sync.SimEvent`. Waiting on a
request blocks the calling image until the simulated operation completes;
because the library progresses communication asynchronously (callbacks on
the event heap), no polling loop is needed at the MPI level.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.sim import irhook as _irhook
from repro.sim.engine import Proc
from repro.sim.sync import SimEvent
from repro.mpi.status import Status


class Request:
    """Completion handle for a nonblocking MPI operation."""

    __slots__ = ("_kind", "_kind_args", "_proc", "_event", "status", "error")

    def __init__(self, kind: str, proc: Proc, *kind_args):
        #: The operation's name, or a ``%`` template for it plus arguments:
        #: only diagnostics read the name, so :attr:`kind` formats it then
        #: and the per-op path does not.
        self._kind = kind
        self._kind_args = kind_args
        self._proc = proc
        self._event = SimEvent("req")  # labelled by whoever parks on it
        self.status = Status()
        #: Set by :meth:`_fail`; re-raised from :meth:`wait` — the ULFM
        #: model where a pending operation involving a failed process
        #: completes in error instead of hanging.
        self.error: Exception | None = None

    # -- completion (library side) ---------------------------------------

    def _complete(self, value=None) -> None:
        self._event.fire(value)

    def _fail(self, exc: Exception) -> None:
        """Complete the request in error (idempotent, scheduler context)."""
        if self._event.is_set:
            return
        self.error = exc
        self._event.fire(None)

    @property
    def kind(self) -> str:
        return self._kind % self._kind_args if self._kind_args else self._kind

    @property
    def completed(self) -> bool:
        return self._event.is_set

    # -- user side --------------------------------------------------------

    def wait(self) -> Status:
        """Block until the operation completes; returns its status."""
        return self._proc.run_script(self._wait_steps())

    def _wait_steps(self):
        """:meth:`wait` as a script (see ``Proc.run_script``)."""
        event = self._event
        if event.is_set:
            # Nothing to wait for: what the event's own script would do on
            # its way out, without opening it.
            rec = _irhook.RECORDER
            if rec is not None:
                rec.on_wait_geq(event, 1)
        else:
            event.label = f"req:{self.kind}"  # the block reason reports show
            yield from event._wait_steps(self._proc)
        if self.error is not None:
            raise self._raised_error()
        return self.status

    def test(self) -> tuple[bool, Status | None]:
        """Nonblocking completion check."""
        if self._event.is_set:
            if self.error is not None:
                raise self._raised_error()
            return True, self.status
        return False, None

    def _raised_error(self) -> Exception:
        """A copy of :attr:`error` to raise. The stored one never carries a
        traceback: its frames hold this request (and whatever holds it), so
        the pair would be a reference cycle outliving the run."""
        error = self.error
        raised = type(error).__new__(type(error), *error.args)
        raised.__dict__.update(error.__dict__)
        return raised

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
    statuses = []
    for req in requests:
        statuses.append((yield from req._wait_steps()))
    return statuses


def recorded_steps(obs, engine, rank: int, kind: str, nbytes: int, steps):
    """``steps`` (one blocking call's script), then its ``kind`` record of
    ``nbytes`` and the virtual time it took in ``obs`` (the run's metrics).
    Callers skip the wrapper altogether when metrics are off."""
    t0 = engine.now
    out = yield from steps
    obs.record(rank, kind, nbytes, engine.now - t0)
    return out
