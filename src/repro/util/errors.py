"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures without catching programming errors.
"""

from __future__ import annotations


def _blocked_detail(
    blocked: dict[int, str], last_progress: dict[int, float] | None
) -> str:
    parts = []
    for r, why in sorted(blocked.items()):
        if last_progress is not None and r in last_progress:
            parts.append(f"rank {r}: {why} (last progress t={last_progress[r]:.9g})")
        else:
            parts.append(f"rank {r}: {why}")
    return "; ".join(parts)


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly or reached a bad state."""


class DeadlockError(SimulationError):
    """All live simulated processes are blocked and no future event exists.

    Attributes
    ----------
    blocked:
        Mapping of rank -> human-readable description of the call the rank
        is blocked in (e.g. ``"event_wait(event#2)"``).
    now:
        Virtual time at which the engine detected quiescence (None for
        hand-constructed instances).
    last_progress:
        Mapping of rank -> virtual time that rank last resumed execution.
    telemetry:
        The final live-telemetry snapshot (a dict), stamped by the cluster
        when the run had a :class:`~repro.obs.live.LiveTelemetry` tap
        armed; ``None`` otherwise. Carries the progress trail — events
        executed, events/s, blocked-rank detail — a
        hung paper-scale run dies with.
    """

    def __init__(
        self,
        blocked: dict[int, str],
        *,
        now: float | None = None,
        last_progress: dict[int, float] | None = None,
    ):
        self.blocked = dict(blocked)
        self.now = now
        self.last_progress = dict(last_progress) if last_progress else {}
        self.telemetry: dict | None = None
        detail = _blocked_detail(self.blocked, self.last_progress or None)
        at = f" at t={now:.9g}" if now is not None else ""
        super().__init__(f"deadlock{at}: all live images are blocked ({detail})")


class SimTimeoutError(SimulationError):
    """``Engine.run(deadline=...)`` hit the watchdog deadline.

    Carries the same per-rank diagnostics as :class:`DeadlockError`: which
    call each unfinished rank is blocked in, and when it last made
    progress — plus, when a live tap was armed, a final ``telemetry``
    snapshot (see :class:`DeadlockError`). Raised when injected faults
    (dropped messages, crashed images) stall the program but
    retransmission timers keep the event heap non-empty, so plain
    deadlock detection never fires.

    The message ends with :attr:`HINT`, whatever the cluster appends to it
    (failed images, the telemetry trail): what to do about the refusal.
    """

    #: The last words of every watchdog refusal.
    HINT = (
        "if the run is only slow, raise deadline=; otherwise the blocked "
        "call sites listed are where it hangs"
    )

    def __init__(
        self,
        deadline: float,
        blocked: dict[int, str],
        *,
        last_progress: dict[int, float] | None = None,
    ):
        self.deadline = deadline
        self.blocked = dict(blocked)
        self.last_progress = dict(last_progress) if last_progress else {}
        self.telemetry: dict | None = None
        detail = _blocked_detail(self.blocked, self.last_progress or None)
        super().__init__(
            f"virtual-time deadline {deadline:.9g}s exceeded; "
            f"unfinished: {detail or 'none (daemon events only)'}"
        )

    def __str__(self) -> str:
        return f"{super().__str__()}; {self.HINT}"


class MpiError(ReproError):
    """An MPI routine was invoked with invalid arguments or in a bad state."""


class MpiProcFailedError(MpiError):
    """ULFM-style MPI_ERR_PROC_FAILED: the operation touched a dead rank.

    ``failed_rank`` is the *world* rank of the failed process.
    """

    def __init__(self, failed_rank: int, message: str | None = None):
        self.failed_rank = failed_rank
        super().__init__(
            message or f"operation involves failed process (world rank {failed_rank})"
        )


class MpiRevokedError(MpiError):
    """ULFM-style MPI_ERR_REVOKED: the communicator has been revoked.

    After any rank calls ``Comm.revoke()``, every pending and future
    operation on that communicator completes with this error, so failure
    knowledge propagates to ranks that never directly touched the dead
    process.
    """

    def __init__(self, context_id: int, message: str | None = None):
        self.context_id = context_id
        super().__init__(
            message or f"communicator (context {context_id}) has been revoked"
        )


class GasnetError(ReproError):
    """A GASNet routine was invoked with invalid arguments or in a bad state."""


class GasnetProcFailedError(GasnetError):
    """A GASNet operation named a crashed node (the conduit analogue of
    ULFM's MPI_ERR_PROC_FAILED). ``failed_rank`` is the dead world rank."""

    def __init__(self, failed_rank: int, message: str | None = None):
        self.failed_rank = failed_rank
        super().__init__(message or f"rank {failed_rank} has failed (node crash)")


class CafError(ReproError):
    """A CAF runtime operation was invoked incorrectly."""


class ImageFailedError(CafError):
    """A CAF operation named an image that has crashed.

    ``failed_image`` is the world rank of the dead image.
    """

    def __init__(self, failed_image: int, message: str | None = None):
        self.failed_image = failed_image
        super().__init__(message or f"image {failed_image} has failed")


class CafTimeoutError(CafError):
    """A CAF wait with ``timeout=`` expired before its condition held."""


class ResilienceError(ReproError):
    """Checkpoint/restart or shrink-recovery machinery misused or exhausted
    (e.g. no checkpoint to resume from, or the restart budget ran out)."""
