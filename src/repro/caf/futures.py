"""Futures for function shipping: spawn a remote function, await its value.

CAF 2.0's function-shipping model (§2.1, Yang's thesis) lets shipped
functions perform the full range of operations; returning a value to the
spawner is the natural companion. A :class:`CafFuture` completes when the
target has executed the function and shipped the result back (a second
Active Message), so waiting on it drives the progress engine — and, like
all AM traffic, it only progresses while the peer is inside CAF calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.sync import SimEvent
from repro.util.errors import CafError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.image import Image
    from repro.caf.teams import Team


class CafFuture:
    """Completion handle for a shipped function's return value."""

    def __init__(self, img: "Image"):
        self.img = img
        self._event = SimEvent(f"caf-future-{next(img._future_ids)}")

    @property
    def done(self) -> bool:
        return self._event.is_set

    def wait(self) -> Any:
        """Block (driving the progress engine) until the result arrives."""
        backend = self.img.backend
        backend.progress_wait(
            lambda: self._event.is_set, "future.wait", extras=(self._event,)
        )
        return self._event.value

    def result(self) -> Any:
        if not self.done:
            raise CafError("future not yet complete; wait() for it")
        return self._event.value


def spawn_future(
    img: "Image", team: "Team", target: int, fn, args: tuple
) -> CafFuture:
    """Ship ``fn(img, *args)`` to ``target``; resolve a future with its value."""
    future = CafFuture(img)
    origin_index = team.my_index

    def remote_body(target_img: "Image") -> None:
        value = fn(target_img, *args)

        def deliver_result(origin_img: "Image") -> None:
            future._event.fire(value)
            origin_img.backend.kick()

        # Ship the result back as another function (so completion follows
        # the same progress rules, and finish's termination detection
        # naturally covers the reply leg too).
        target_img.spawn(origin_index, deliver_result, team=team)

    img.spawn(target, remote_body, team=team)
    return future
