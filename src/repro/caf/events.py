"""CAF 2.0 events: first-class counting synchronization objects (§2.1).

Events are allocated as coarrays so remote images can post them.
``event_notify`` posts an event on another image **after all previous
operations issued by the notifier are remotely complete** — the
release-barrier semantics whose CAF-MPI implementation
(``MPI_WAITALL`` + ``MPI_WIN_FLUSH_ALL`` + AM over ``MPI_ISEND``) the
paper analyzes at length (§3.4, Figure 4). ``event_wait`` blocks (driving
the progress engine) until posted; ``event_trywait`` is its nonblocking
test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.errors import CafError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.image import Image
    from repro.caf.teams import Team
    from repro.sim.sync import SimEvent


class EventArray:
    """``nslots`` events on every image of a team (an event coarray)."""

    def __init__(self, img: "Image", team: "Team", nslots: int):
        if nslots <= 0:
            raise CafError(f"event array needs at least one slot, got {nslots}")
        self.img = img
        self.team = team
        self.nslots = nslots
        self.storage = img.backend.allocate_events(team, nslots)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.nslots:
            raise CafError(f"event slot {slot} out of range [0, {self.nslots})")

    # -- posting ------------------------------------------------------------

    def notify(self, target: int, slot: int = 0) -> None:
        """event_notify: post slot ``slot`` on image ``target``."""
        self._check_slot(slot)
        if not 0 <= target < self.team.size:
            raise CafError(f"image index {target} out of range [0, {self.team.size})")
        self.img._check_alive(self.team, target)
        with self.img.profile("event_notify", "caf.event_notify"):
            self.img.backend.event_notify(self.storage, target, slot)

    def _post_local(self, slot: int) -> None:
        """Post this image's own slot (used for source/local completion
        events); on the image's own fiber, what it releases runs now."""
        self.storage.post(slot)
        self.img.backend.run_continuations()

    def _post_on(self, done: "SimEvent", slot: int) -> None:
        """Post this image's own ``slot`` when the op of ``done`` completes,
        unless it failed: then nothing arrived, and a wait on the slot fails
        under the failure rule instead of returning over missing data."""
        done.subscribe(lambda: done.error is None and self._post_local(slot))

    def _san_consumed(self, slot: int, count: int) -> None:
        """Sanitized runs: a consumed wait is the happens-before edge from
        every matching notify (the notifier's clock merges into ours)."""
        san = self.img.ctx.sanitizer
        if san is not None:
            me = self.img.ctx.rank
            san.event_consumed(me, (self.storage.event_id, me, slot), count)

    # -- waiting --------------------------------------------------------------

    def wait(self, slot: int = 0, count: int = 1, *, timeout: float | None = None) -> None:
        """event_wait: block until ``count`` notifications; consumes them.

        ``timeout`` (virtual seconds) bounds the wait: if the posts do not
        arrive in time — e.g. the notifier crashed — the call raises
        :class:`CafTimeoutError` instead of hanging, consuming nothing.
        """
        self._check_slot(slot)
        if timeout is not None and timeout < 0:
            raise CafError(f"event_wait timeout must be >= 0, got {timeout!r}")
        with self.img.profile("event_wait", "caf.event_wait"):
            self.img.backend.event_wait(self.storage, slot, count, timeout)
        self._san_consumed(slot, count)

    def trywait(self, slot: int = 0, count: int = 1) -> bool:
        """event_trywait: nonblocking; consumes and returns True if posted."""
        self._check_slot(slot)
        self.img.backend.poll()
        if self.storage.count(slot) >= count:
            self.storage.consume(slot, count)
            self._san_consumed(slot, count)
            return True
        return False

    def count(self, slot: int = 0) -> int:
        """Un-consumed notifications currently pending on a local slot."""
        self._check_slot(slot)
        return self.storage.count(slot)

    def on_next_post(self, slot: int, cb) -> None:
        """Run ``cb`` on this image's fiber once the slot is posted (now, if
        it already is): the start of an operation gated on a predicate
        event, ready while the count is positive, however the post came.
        """
        self._check_slot(slot)
        storage = self.storage
        self.img.backend.defer(cb, lambda: storage.count(slot) > 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventArray slots={self.nslots} team={self.team.team_id}>"
