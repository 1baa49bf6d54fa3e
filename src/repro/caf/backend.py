"""The CAF 2.0 runtime above the transports, and the transport interface.

The paper's design (§3) is one runtime with the substrate swapped
underneath, so a backend here is a *transport*: how a thunk, a coarray
access and a completion wait travel over MPI-3 or GASNet. Everything that
merely rides on those primitives — function shipping, event posting, event
allocation, termination-detection counters, the progress engine and its
queue of released work — is written once, in :class:`RuntimeBackend`. A
backend instance is per-image.

Conventions:

* ``team`` arguments are :class:`repro.caf.teams.Team` objects; the backend
  stores its per-team handle in ``team.handle``. That handle *is* the
  blocking-collective API: an MPI communicator or a GASNet
  :class:`~repro.gasnet.collectives.TeamExchange`, both with ``barrier()``,
  ``bcast(buf, root)``, ``reduce(send, recv, op, root)``,
  ``allreduce(send, recv, op)``, ``alltoall(send, recv)`` and
  ``allgather(send, recv)``.
* Coarray storage handles are backend-specific objects stored on the
  :class:`~repro.caf.coarray.Coarray`.
* All blocking entry points drive the one progress engine (the
  transport's AM drain, then the queued work a completion released) while
  waiting, because shipped functions, destination-event writes and gated
  starts complete only there.
* A blocking call is one script (:meth:`repro.sim.engine.Proc.run_script`):
  a transport supplies its *steps* (``_write_steps``, ``_notify_steps``, ...,
  composed with ``yield from``) and the entry point that parks the image on
  them, once per call, is written here; no transport parks a fiber.
* Every Active Message carries a *thunk*: the sender parks a closure on the
  cluster-wide board (:meth:`RuntimeBackend._board`), the wire carries its
  sequence number and a modelled size (:meth:`RuntimeBackend.send_thunk`),
  and the target's progress engine runs it through the one handler entry
  point, :meth:`RuntimeBackend._run_thunk`, which hands it the backend of
  the image it runs on: ``thunk(here)``. A thunk is handler code: it
  does not block. One with more to do than that — run user code, send a
  message of its own — returns those steps as a script (see
  :meth:`repro.sim.engine.Proc.run_script`) and the progress engine takes
  them; user code among them is yielded as a callable, so it runs on the
  image's own fiber: the handler enqueues, the image executes.
"""

from __future__ import annotations

import abc
import functools
import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.caf.teams import next_global_id
from repro.sim.sync import Counter, SimEvent, unless_failed
from repro.util.errors import CafError, CafTimeoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.teams import Team
    from repro.sim.cluster import RankCtx


@functools.lru_cache(maxsize=1024)
def _wait_reason(slot: int, count: int, timeout: float | None) -> str:
    """What reports name an event wait: one string per slot, count and
    timeout, not one per wait."""
    if timeout is None:
        return f"event_wait(slot={slot}, count={count})"
    return f"event_wait(slot={slot}, timeout={timeout})"


class EventStorage:
    """Per-image event-coarray state: the un-consumed notification counts.

    ``event_id`` is agreed collectively (same allocation order on every
    image), so a notifier can name the target's storage in an AM. A post
    counts and kicks the owning backend's progress engine, so an
    ``event_wait`` wakes (and a gated operation starts) even when the post
    arrives through a non-AM path (e.g. an RGET completion firing a local
    event).
    """

    def __init__(self, backend: "RuntimeBackend", event_id: int, team: "Team", nslots: int):
        self.backend = backend
        self.event_id = event_id
        self.team = team
        self.nslots = nslots
        self.counters = [0] * nslots

    def post(self, slot: int) -> None:
        """One more notification on this image's ``slot``."""
        self.counters[slot] += 1
        self.backend.kick()

    def count(self, slot: int) -> int:
        """Current un-consumed notification count of a local slot."""
        return self.counters[slot]

    def consume(self, slot: int, n: int) -> None:
        """Consume ``n`` notifications (caller guarantees availability)."""
        self.counters[slot] -= n


class RuntimeBackend(abc.ABC):
    """Per-image CAF runtime; subclasses supply the transport."""

    name: str = "abstract"
    #: Modelled wire bytes of a bare thunk AM, and of a shipped function.
    AM_BYTES: int
    SHIP_BYTES: int
    #: Bumped on every AM arrival and :meth:`kick`; the progress engine
    #: sleeps on it between turns (the transport sets it).
    _activity: Counter

    def __init__(self, ctx: "RankCtx"):
        self.ctx = ctx
        # Out-of-band python payloads for AMs (the wire carries sizes only).
        self._am_board: dict[tuple[int, int], Callable[[RuntimeBackend], Any]] = (
            ctx.cluster.shared("caf-am-board", dict)
        )
        self._am_seq = itertools.count()
        self._event_registry: dict[int, EventStorage] = {}
        #: ``(ready, fn)`` work for this image's own fiber (:meth:`defer`).
        self._continuations: list[tuple[Callable[[], bool] | None, Callable[[], None]]] = []
        self._shipped = 0
        self._completed = 0

    def _end_run(self) -> None:
        """The run is over (:func:`~repro.caf.program.run_caf` calls this on
        every image, however the run ended): drop the links that close this
        image's cycles — the event registry (each storage points back
        here), thunks parked for a receive that never came, work queued for
        a release that never came — so the finished run is freed by
        reference counting. A transport extends it with its own."""
        self._event_registry.clear()
        self._am_board.clear()
        self._continuations.clear()

    # -- transport: Active Messages and the progress engine --------------------

    def send_thunk(
        self, target_world: int, wire_bytes: int, thunk: Callable[[RuntimeBackend], Any]
    ) -> None:
        """Inject an AM of ``wire_bytes`` that runs ``thunk(here)`` on image
        ``target_world`` (under its progress engine; ``here`` is that
        image's backend)."""
        self.ctx.proc.run_script(self._send_thunk_steps(target_world, wire_bytes, thunk))

    @abc.abstractmethod
    def _send_thunk_steps(
        self, target_world: int, wire_bytes: int, thunk: Callable[[RuntimeBackend], Any]
    ):
        """:meth:`send_thunk` over this transport."""

    def _board(self, thunk: Callable[[RuntimeBackend], Any]) -> int:
        """Park ``thunk`` for its target; the AM carries the returned
        sequence number."""
        seq = next(self._am_seq)
        self._am_board[(self.ctx.rank, seq)] = thunk
        return seq

    def _run_thunk(self, src_world: int, seq: int):
        """The one entry point of every AM handler of the CAF runtime: the
        thunks built in :meth:`ship_function`, :meth:`_post_thunk`, both
        backends' ``coarray_write_async`` (destination events) and
        CAF-GASNet's ``_am_write`` (write + ack). Returns what the thunk
        returned: ``None``, or the steps it still has to take — user code
        for the image's own fiber (the first) or a message of its own (the
        last)."""
        return self._am_board.pop((src_world, seq))(self)

    def poll(self) -> None:
        """One turn of the progress engine (nonblocking): run the pending
        incoming Active Messages, then the queued work they left ready."""
        self.ctx.proc.run_script(self._progress_steps())

    @abc.abstractmethod
    def _poll_steps(self):
        """Drain this transport's arrived AMs: run each one's thunk and take
        the steps it returns. Returns whether more may be queued."""

    def kick(self) -> None:
        """Wake this image's progress engine so it re-evaluates predicates."""
        self._activity.add()

    def progress_wait(
        self, pred: Callable[[], bool], reason: str, extras: tuple[SimEvent, ...] = ()
    ) -> None:
        """Block until ``pred()``; runs AM handlers while waiting; also wakes
        on any of ``extras`` firing. ``reason`` names the wait in deadlock,
        watchdog and telemetry reports."""
        self.ctx.proc.run_script(self._progress_wait_steps(pred, reason, extras))

    def _progress_steps(self):
        """One turn of the progress engine: the transport's AM drain, then
        the queued work that is ready (yielded: it runs on the image's own
        fiber). Returns whether to turn again before sleeping: AMs may be
        queued, or work ran, which communicates, so time passed."""
        more = yield from self._poll_steps()
        queue = self._continuations
        if queue and any(ready is None or ready() for ready, _fn in queue):
            yield self.run_continuations
            return True
        return more

    def _progress_wait_steps(
        self, pred: Callable[[], bool], reason: str, extras: tuple[SimEvent, ...] = ()
    ):
        """:meth:`progress_wait` as a script (``GASNET_BLOCKUNTIL``; §3.2's
        ``iprobe``/``recv`` loop): turn the engine until ``pred()``,
        sleeping on the activity counter between turns. Then the first of
        ``extras`` that failed (an op whose peer died, an async
        collective's error) is raised here, on the waiting image."""
        activity = self._activity
        unsubscribed = extras
        while True:
            more = yield from self._progress_steps()
            if pred():
                break
            for ev in unsubscribed:
                # Spurious activity bumps are harmless: they just rescan.
                ev.subscribe(activity.add)
            unsubscribed = ()  # subscribed, once
            if not more:
                yield from activity._wait_geq_steps(self.ctx.proc, activity.count + 1, reason)
        for ev in extras:
            if ev.error is not None:
                raise ev._raised_error()

    # -- teams -----------------------------------------------------------

    @abc.abstractmethod
    def make_world_team_handle(self, team: "Team") -> Any:
        """Build the backend handle for TEAM_WORLD."""

    @abc.abstractmethod
    def split_team_handle(self, parent: "Team", color: int, key: int, entry) -> Any:
        """Collective over ``parent``: backend handle for the split team.

        ``entry`` is ``(team_id, members, my_index)`` from the language
        layer's agreement protocol, or None when this image passed
        ``color < 0``. Every parent member calls this (backends may run
        their own collective underneath).
        """

    def shrink_team_handle(self, parent: "Team", team: "Team") -> Any:
        """Survivor-only handle construction for a post-failure shrink.

        ``team`` is ``parent``'s successor, decided by the first survivor
        to shrink it (fresh id, contiguous renumbering). Dead images cannot
        participate, so implementations run no collective and wait for no
        member: the first survivor here builds the handle of every
        survivor, and each later one takes its own.
        """
        raise NotImplementedError(
            f"backend {self.name} does not support team shrink"
        )

    def agree(
        self, team: "Team", contribution: Any, combine: Callable[[dict[int, Any]], Any]
    ) -> Any:
        """Collective over ``team``: one agreement round, its handle's
        ``_agree_steps`` — ``combine({team index: contribution})``, built
        once and returned on every member."""
        return self.ctx.proc.run_script(team.handle._agree_steps(contribution, combine))

    # -- coarrays -----------------------------------------------------------

    @abc.abstractmethod
    def allocate_coarray(self, team: "Team", nelems: int, dtype: np.dtype) -> Any:
        """Collective over ``team``: symmetric allocation; returns storage handle."""

    @abc.abstractmethod
    def local_view(self, storage: Any) -> np.ndarray:
        """This image's segment of the coarray."""

    def coarray_write(self, storage: Any, target: int, runs: list, data: np.ndarray) -> None:
        """Blocking remote write: scatter ``data`` over the (element offset,
        length) runs of the target's coarray; remotely complete on return
        (§3.1). A contiguous write is one run; a Fortran array section like
        ``A(1:n:2)[p] = ...`` is several, moved as one derived-datatype PUT
        under MPI or one VIS put under GASNet."""
        self.ctx.proc.run_script(self._write_steps(storage, target, runs, data))

    def coarray_read(self, storage: Any, target: int, runs: list, out: np.ndarray) -> None:
        """Blocking remote read of the target's runs into ``out``."""
        self.ctx.proc.run_script(self._read_steps(storage, target, runs, out))

    @abc.abstractmethod
    def _write_steps(self, storage: Any, target: int, runs: list, data: np.ndarray):
        """:meth:`coarray_write` over this transport."""

    @abc.abstractmethod
    def _read_steps(self, storage: Any, target: int, runs: list, out: np.ndarray):
        """:meth:`coarray_read` over this transport."""

    @abc.abstractmethod
    def coarray_write_async(
        self, storage: Any, target: int, offset: int, data: np.ndarray, *,
        dest_event: tuple[Any, int] | None,
    ) -> SimEvent | None:
        """Start an asynchronous write (the §3.3 four-case mapping); returns
        the transport's event that fires when ``data`` is reusable, or None
        when the transport has already copied it.

        ``dest_event`` is ``(event_storage, slot)``: when given, the backend
        must post that event *at the target image* once the data is visible
        there (case 4: the Active-Message path under CAF-MPI, a long AM
        under CAF-GASNet; both copy ``data`` before sending).
        """

    @abc.abstractmethod
    def coarray_read_async(
        self, storage: Any, target: int, offset: int, out: np.ndarray
    ) -> SimEvent:
        """Start an asynchronous read (always request-based: §3.3 case 2);
        returns the transport's event that fires when ``out`` holds the data."""

    # -- events ----------------------------------------------------------------

    def allocate_events(self, team: "Team", nslots: int) -> EventStorage:
        """Collective: allocate an event coarray; returns storage handle."""
        event_id = self.agree(
            team, None, lambda args: next_global_id(self.ctx.cluster, "caf-event-id-counter")
        )
        storage = self._new_event_storage(event_id, team, nslots)
        self._event_registry[event_id] = storage
        return storage

    def _new_event_storage(self, event_id: int, team: "Team", nslots: int) -> EventStorage:
        """Collective: where this backend keeps an event coarray's counts."""
        return EventStorage(self, event_id, team, nslots)

    def _post(self, event_id: int, slot: int) -> None:
        """Post this image's event, in a thunk: count + kick."""
        storage = self._event_registry.get(event_id)
        if storage is None:
            raise CafError(f"event {event_id} posted before allocation on target")
        storage.post(slot)

    @staticmethod
    def _post_thunk(event_id: int, slot: int):
        """The notification AM of :meth:`event_notify` (send/recv design)."""
        return lambda here: here._post(event_id, slot)

    def event_notify(self, storage: Any, target: int, slot: int) -> None:
        """Post an event at ``target`` after completing all prior ops (§3.4)."""
        self.ctx.proc.run_script(self._notify_steps(storage, target, slot))

    @abc.abstractmethod
    def _notify_steps(self, storage: Any, target: int, slot: int):
        """:meth:`event_notify` over this transport: release barrier, then post."""

    def event_wait(
        self, storage: EventStorage, slot: int, count: int, timeout: float | None = None
    ) -> None:
        """Block until ``count`` notifications are pending, then consume them;
        raise, consuming nothing, :class:`CafTimeoutError` if they are not
        all there ``timeout`` virtual seconds after the call, or
        :class:`ImageFailedError` once a member of the event's team has
        failed before they are (Fortran 2018's ``STAT_FAILED_IMAGE``)."""
        self.ctx.proc.run_script(self._event_wait_steps(storage, slot, count, timeout))

    def _event_wait_steps(
        self, storage: EventStorage, slot: int, count: int, timeout: float | None = None
    ):
        """:meth:`event_wait`: the timer, if any, is armed here and kicks the
        progress engine when it fires, so the wait's predicate reruns, as a
        failure does. What already arrived still counts: a satisfied wait
        returns whoever has failed."""
        reason = _wait_reason(slot, count, timeout)
        if timeout is None:
            timer = None

            def satisfied(storage=storage, slot=slot, count=count) -> bool:
                return storage.count(slot) >= count
        else:
            timer, satisfied = self._timed(storage, slot, count, timeout)
        team = storage.team
        ready = unless_failed(
            satisfied, self.ctx.cluster.failed_ranks, team.members, team.failed_member, reason
        )
        try:
            yield from self._await_event_steps(storage, ready, reason)
        finally:
            if timer is not None:
                # Satisfied first: a timer left armed would still hold the
                # clock (the run would end at the timeout) and count an event.
                self.ctx.engine.cancel(timer)
        have = storage.count(slot)
        if have < count:
            raise CafTimeoutError(
                f"event_wait(slot={slot}) timed out after {timeout}s "
                f"with {have}/{count} notifications"
            )
        storage.consume(slot, count)

    def _timed(self, storage: EventStorage, slot: int, count: int, timeout: float):
        """A timed wait's timer ticket and predicate: satisfied, or expired."""
        expired = [False]

        def fire() -> None:
            expired[0] = True
            self.kick()

        def satisfied() -> bool:
            return storage.count(slot) >= count or expired[0]

        return self.ctx.engine.call_in(timeout, fire), satisfied

    def _await_event_steps(self, storage: EventStorage, ready: Callable[[], bool], reason: str):
        """The wait of :meth:`event_wait` until ``ready()``: by driving the
        progress engine (the paper's chosen send/recv design); a transport
        may busy-wait on atomics instead (§3.4)."""
        return self._progress_wait_steps(ready, reason)

    # -- released work (runtime continuations) --------------------------------

    def defer(self, fn: Callable[[], None], ready: Callable[[], bool] | None = None) -> None:
        """Queue ``fn`` — work that communicates: a gated start,
        ``copy_async``'s forwarding leg — for this image's own fiber, to run
        once ``ready()`` holds (None: at once). Queued by that fiber outside
        a script, it runs now if ready; else at a turn of the progress
        engine, after that turn's handlers."""
        self._continuations.append((ready, fn))
        if not self.run_continuations():
            self.kick()

    def run_continuations(self) -> bool:
        """On this image's own fiber outside a script, run queued work while
        any is ready (it may queue more) and return True; elsewhere False."""
        proc = self.ctx.proc
        if self.ctx.engine._current is not proc or proc._script is not None:
            return False
        queue = self._continuations
        while True:
            for i, (ready, fn) in enumerate(queue):
                if ready is None or ready():
                    del queue[i]
                    break
            else:
                return True
            fn()

    # -- implicit synchronization ----------------------------------------------------

    def cofence(self, *, puts: bool = True, gets: bool = True) -> None:
        """Local completion of implicitly-synchronized async ops (§3.5).

        The paper's runtime keeps one array of request handles for implicit
        PUTs and another for implicit GETs; the optional arguments select
        which array (or both) to MPI_WAITALL.
        """
        self.ctx.proc.run_script(self._cofence_steps(puts=puts, gets=gets))

    def quiet(self) -> None:
        """Remote completion of everything this image issued (finish helper)."""
        self.ctx.proc.run_script(self._quiet_steps())

    @abc.abstractmethod
    def _cofence_steps(self, *, puts: bool = True, gets: bool = True):
        """:meth:`cofence` over this transport."""

    @abc.abstractmethod
    def _quiet_steps(self):
        """:meth:`quiet` over this transport."""

    @abc.abstractmethod
    def collective_async(self, team: "Team", kind: str, args: tuple) -> SimEvent:
        """Start an asynchronous collective (§2.1); the event fires when the
        operation completes on this image.

        ``kind`` names a blocking collective of ``team.handle``
        (bcast/reduce/allreduce/alltoall/allgather); ``args`` are its
        arguments. Under CAF-MPI these map to MPI-3 nonblocking
        collectives; under CAF-GASNet a progress agent drives a hand-rolled
        "async twin" of the team.
        """

    # -- function shipping ------------------------------------------------------------------

    def ship_function(self, team: "Team", target: int, payload) -> None:
        """Run ``fn(img, *args)`` on image ``target`` (under its progress
        engine); ``payload`` is ``(fn, args)``."""
        fn, args = payload
        target_world = team.world_rank(target)
        self._shipped += 1

        def run_on_target(here: RuntimeBackend):
            def body() -> None:
                img = here.ctx.cluster.shared("caf-images", dict).get(target_world)
                if img is None:
                    raise CafError("target image not initialized for function shipping")
                try:
                    fn(img, *args)
                finally:
                    here._completed += 1

            # User code, which may block: the handler hands it to the
            # image's own fiber.
            yield body

        self.send_thunk(target_world, self.SHIP_BYTES, run_on_target)

    def shipped_minus_completed(self) -> int:
        """Local term of Yang's termination-detection sum (finish, §3.5)."""
        return self._shipped - self._completed

    def completed_count(self) -> int:
        """How many shipped functions this image has executed so far."""
        return self._completed
