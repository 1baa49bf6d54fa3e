"""Worker agents: daemon processes that execute queued work items.

A :class:`WorkerAgent` models a library progress thread: it shares the
owning rank's machine parameters but has its own virtual timeline, so work
it performs overlaps with the rank's main computation — which is the whole
point of nonblocking collectives and asynchronous CAF operations.

Work items run strictly FIFO, one at a time, on the agent's process. A
work item that fails (a peer died under a collective, a communicator was
revoked) fails its done event instead of ending the run: the image that
waits on the event re-raises the error, and the agent takes its next item.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from typing import Any

from repro.sim.cluster import RankCtx
from repro.sim.engine import Proc
from repro.sim.sync import Channel, SimEvent
from repro.util.errors import ReproError


class WorkerAgent:
    """One rank's FIFO work executor (a modeled progress thread)."""

    def __init__(self, base_ctx: RankCtx, name: str):
        self._queue: Channel = Channel(f"{name}.queue")
        self._proc = base_ctx.engine.spawn(self._loop, name=name, daemon=True)
        # The rank's context with the agent's process: communication layers
        # charge their software overheads to ``ctx.proc``, so the agent pays
        # instead of the user thread.
        self.ctx = copy.copy(base_ctx)
        self.ctx.proc = self._proc
        # One of the run's contexts: the cluster cuts it with the ranks' own.
        base_ctx.cluster.ctxs.append(self.ctx)
        self.items_executed = 0

    def submit(self, work: Callable[[RankCtx], Any]) -> SimEvent:
        """Queue ``work(agent_ctx)``; the returned event fires with its
        result when the agent completes it, or fails with its error."""
        done = SimEvent("agent-work")
        self._queue.put((work, done))
        return done

    def _loop(self, proc: Proc) -> None:
        while True:
            work, done = self._queue.get(proc)
            try:
                result = work(self.ctx)
            except ReproError as exc:
                done._fail(exc.with_traceback(None))
            else:
                done.fire(result)
            self.items_executed += 1
