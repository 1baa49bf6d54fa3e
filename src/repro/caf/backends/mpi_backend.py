"""CAF-MPI: the paper's runtime design (§3), implemented point for point.

Mapping summary:

* **Coarrays** (§3.1): ``MPI_WIN_ALLOCATE`` per coarray over the team's
  communicator; ``MPI_WIN_LOCK_ALL`` at allocation (passive target);
  remote references are ``(window, rank, displacement)``; blocking
  read/write are ``MPI_GET``/``MPI_PUT`` + ``MPI_WIN_FLUSH``.
* **Active Messages** (§3.2): built on ``MPI_ISEND``; a near-replica of
  the GASNet core AM API. The MPI library cannot run the handlers — only
  the CAF progress engine does, by probing/receiving AM-tagged messages
  inside blocking CAF calls. An application blocked in a *pure MPI* call
  makes no AM progress (the §5 discussion and the Figure 2 hazard).
* **Asynchronous operations** (§3.3), the four-case mapping:
  no events → ``MPI_PUT``; local-completion events → ``MPI_RPUT``
  request; GET-style → ``MPI_RGET`` (request is local+remote); remote
  destination events → the AM path (data travels by send/recv and the
  target posts the event after copying).
* **Events** (§3.4): send/recv design (the paper's chosen approach 2).
  ``event_notify`` = ``MPI_WAITALL`` on the release barrier's request
  handles + ``MPI_WIN_FLUSH_ALL`` on every touched window (the
  linear-in-P cost of Figure 4) + a short AM via ``MPI_ISEND``.
  ``event_wait`` = blocking poll using MPI receive internally.
* **cofence / finish** (§3.5): ``MPI_WAITALL`` on stored request handles;
  fast finish = ``FLUSH_ALL`` per touched window + ``MPI_BARRIER``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.caf.backend import EventStorage, RuntimeBackend
from repro.mpi import p2p
from repro.mpi.constants import SUM
from repro.mpi.request import Request
from repro.mpi.world import MpiWorld
from repro.sim.sync import SimEvent
from repro.util.errors import CafError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.teams import Team
    from repro.sim.cluster import RankCtx

#: Tag used for all CAF Active Messages on the dedicated AM communicator.
AM_TAG = 77


class _CoarrayStorage:
    """(window, rank, displacement) remote references — §3.1."""

    def __init__(self, win, team: "Team"):
        self.win = win
        self.team = team


class _AtomicEventStorage(EventStorage):
    """Event coarray backed by an RMA window of counters (§3.4 approach 1).

    Notification is an ``MPI_ACCUMULATE``; waiting busy-polls the local
    window counter (the unified memory model makes plain loads legal). The
    paper chose the send/recv design instead; this one exists for the
    ablation comparing the two.
    """

    def __init__(self, backend, event_id, team, nslots, win):
        super().__init__(backend, event_id, team, nslots)
        self.win = win
        self.consumed = [0] * nslots

    def post(self, slot: int) -> None:
        self.win.local[slot] += 1
        self.backend.kick()

    def count(self, slot: int) -> int:
        return int(self.win.local[slot]) - self.consumed[slot]

    def consume(self, slot: int, n: int) -> None:
        self.consumed[slot] += n


class MpiBackend(RuntimeBackend):
    name = "caf-mpi"
    AM_BYTES = 16  # modeled (kind, seq) header on the wire
    SHIP_BYTES = AM_BYTES + 240

    def __init__(self, ctx: "RankCtx", options: dict[str, Any] | None = None):
        super().__init__(ctx)
        self.options = dict(options or {})
        #: §3.4 event mechanism: "sendrecv" (the paper's choice) or
        #: "atomics" (FETCH_AND_OP notify + busy-wait; the ablation).
        self.event_impl = self.options.get("event_impl", "sendrecv")
        if self.event_impl not in ("sendrecv", "atomics"):
            raise CafError(f"event_impl must be sendrecv|atomics, got {self.event_impl!r}")
        #: §5 future work, implemented: complete remote ops with the
        #: request-based MPI_WIN_RFLUSH_ALL extension (constant software
        #: cost, overlappable) instead of the blocking linear FLUSH_ALL.
        self.use_rflush = bool(self.options.get("use_rflush", False))
        world = MpiWorld.get(ctx.cluster)
        self.mpi = world.init(ctx)
        # The runtime's own contexts, isolated from any MPI the hybrid
        # application does on COMM_WORLD.
        self._team_world_comm = self.mpi.COMM_WORLD.dup()
        self.am_comm = self.mpi.COMM_WORLD.dup()
        self._am_matching = self.am_comm.state.user
        self._activity = self._am_matching.arrivals[ctx.rank]
        #: The run's CAF team communicators (context id -> shared state): a
        #: member's failure revokes one.
        self._team_states: dict = ctx.cluster.shared("caf-mpi-team-comms", dict)
        ctx.cluster.failure_listeners.append(self._on_rank_failure)
        # §3.5: the runtime "internally maintains an array of request
        # handles of implicitly synchronized PUT operations and another
        # array ... of GET operations"; cofence WAITALLs them selectively.
        # With the AM sends they are the release barrier of §3.4: every op
        # initiated locally since the last notify/quiet, each held once.
        self._implicit_puts: list[Request] = []
        self._implicit_gets: list[Request] = []
        self._am_sends: list[Request] = []
        #: Every coarray window this image allocated. event_notify/quiet
        #: FLUSH_ALL each of them — MPICH walks all ranks per window even
        #: when the epoch is idle (cheaply) and linearly when dirty (§4.1).
        self._windows: list = []

    # -- facade for hybrid applications -----------------------------------

    def mpi_facade(self):
        """The application-visible MPI handle (hybrid MPI+CAF programs)."""
        return self.mpi

    # -- teams ----------------------------------------------------------------

    def _team_comm(self, comm):
        """A team's communicator (None for an image outside the split),
        revoked when a member fails (:meth:`_on_rank_failure`)."""
        if comm is not None:
            self._team_states[comm.state.context_id] = comm.state
        return comm

    def _on_rank_failure(self, world_rank: int) -> None:
        """Scheduler-context: a wait over a team with a failed member fails
        unless satisfied (Fortran 2018), also one on a live member, so the
        team's communicator is revoked; and every wait reruns its test."""
        for state in self._team_states.values():
            if world_rank in state.group:
                state._revoke(
                    f"team communicator (context {state.context_id}) was revoked "
                    f"when world rank {world_rank} failed: shrink the team over the "
                    "survivors, or restart from a checkpoint"
                )
        self.kick()

    def make_world_team_handle(self, team: "Team"):
        return self._team_comm(self._team_world_comm)

    def split_team_handle(self, parent: "Team", color: int, key: int, entry):
        return self._team_comm(parent.handle.split(color, key))

    def shrink_team_handle(self, parent: "Team", team: "Team"):
        # ULFM MPIX_COMM_SHRINK: the survivor that decided the team builds
        # the communicator's successor here too, from the same failed set.
        comm = parent.handle.shrink()
        assert comm.state.group == team.members, (comm.state.group, team.members)
        # What the old team lost is abandoned with it: completion stops
        # walking revoked teams' windows, and no later wait reports a failed op.
        self._windows = [w for w in self._windows if not w.comm.state.revoked]
        self._implicit_puts, self._implicit_gets, self._am_sends = (
            [req for req in reqs if req.error is None]
            for reqs in (self._implicit_puts, self._implicit_gets, self._am_sends)
        )
        return self._team_comm(comm)

    # -- Active Messages over MPI_ISEND (§3.2) ------------------------------------

    def _send_thunk_steps(self, target_world: int, wire_bytes: int, thunk: Callable[..., Any]):
        """Inject an AM: an eager MPI_ISEND plus an out-of-band thunk. The
        payload is the thunk's 8-byte board number, zero-padded to
        ``wire_bytes``."""
        header = self._board(thunk).to_bytes(8, "little")
        payload = np.frombuffer(header.ljust(wire_bytes, b"\0"), np.uint8)
        req = yield from p2p.isend_steps(
            self.am_comm, self._am_matching, payload, target_world, AM_TAG
        )
        self._am_sends.append(req)

    def _poll_steps(self):
        """Drain arrived AMs (§3.2): probe, receive, run the thunk, take the
        steps it returns, until the probe finds none. Every message on the
        runtime's AM communicator is an AM, so the probe for one is its
        oldest unexpected message."""
        comm = self.am_comm
        matching = self._am_matching
        arrived = matching.unexpected[comm.rank]
        while True:
            if comm.state.revoked:
                comm.check_revoked()
            if not arrived:
                return False
            source, buf = arrived[0].src, np.empty(arrived[0].nbytes, np.uint8)
            yield from p2p.recv_steps(comm, matching, buf, source, AM_TAG)
            steps = self._run_thunk(source, int.from_bytes(buf[:8], "little"))
            if steps is not None:
                yield from steps

    def _waitall_steps(self, requests: list[Request], reason: str):
        """``MPI_WAITALL`` that keeps running AM handlers meanwhile. Over
        requests already complete it is one progress turn still (AM order
        holds), and it builds nothing."""
        for req in requests:
            if not req.is_set:
                done = tuple(requests)
                yield from self._progress_wait_steps(
                    lambda: all(ev.is_set for ev in done), reason, done
                )
                return
        yield from self._progress_steps()
        for req in requests:
            if req.error is not None:
                raise req._raised_error()

    # -- coarrays (§3.1) ---------------------------------------------------------------

    def allocate_coarray(self, team: "Team", nelems: int, dtype: np.dtype):
        win = self.mpi.win_allocate(shape=nelems, dtype=dtype, comm=team.handle)
        win.lock_all()  # passive-target epoch held until deallocation
        self._windows.append(win)
        return _CoarrayStorage(win, team)

    def local_view(self, storage: _CoarrayStorage) -> np.ndarray:
        return storage.win.local

    @staticmethod
    def _flushed_steps(win, op_steps, target: int):
        """One RMA op, then ``MPI_WIN_FLUSH`` to its target, as one script."""
        yield from op_steps
        yield from win._flush_steps(target)

    def _waited_steps(self, op_steps, reason: str):
        """One request-based RMA op, then the wait for its request (polling
        AMs meanwhile), as one script."""
        req = yield from op_steps
        yield from self._waitall_steps([req], reason)

    def _write_steps(self, storage: _CoarrayStorage, target: int, runs: list, data: np.ndarray):
        win = storage.win
        return self._flushed_steps(win, win._put_steps(data, target, runs), target)

    def _read_steps(self, storage: _CoarrayStorage, target: int, runs: list, out: np.ndarray):
        return self._waited_steps(storage.win._get_steps(out, target, runs), "coarray_read")

    def coarray_write_async(
        self, storage: _CoarrayStorage, target: int, offset: int, data: np.ndarray, *,
        dest_event: tuple[Any, int] | None,
    ) -> SimEvent | None:
        win = storage.win
        if dest_event is not None:
            # Case 4: remote-completion event -> Active Message path (§3.3).
            ev_storage, slot = dest_event
            target_world = storage.team.world_rank(target)
            data_copy = data.copy()
            event_id = ev_storage.event_id

            def deliver_on_target(here) -> None:
                tb = win.state.buffers[target]
                tb[offset : offset + data_copy.size] = data_copy
                san = self.ctx.sanitizer
                if san is not None:
                    # AM handler runs on the target after the sender-clock
                    # merge, so this lands like an ordered local store.
                    item = tb.itemsize
                    san.record_local(
                        target_world,
                        ("win", win.win_id, target_world),
                        [(offset * item, (offset + data_copy.size) * item)],
                        "am-write",
                    )
                here._post(event_id, slot)

            self.send_thunk(
                target_world, self.AM_BYTES + data_copy.nbytes, deliver_on_target
            )
            return None  # buffered by the AM layer
        # Case 3, local-completion event -> MPI_RPUT request; and case 1,
        # no events -> the same MPI_RPUT, whose request feeds the
        # implicit-PUT array for cofence (FLUSH_ALL covers the rest).
        req = win.rput(data, target, offset)
        self._implicit_puts.append(req)
        return req

    def coarray_read_async(
        self, storage: _CoarrayStorage, target: int, offset: int, out: np.ndarray
    ) -> SimEvent:
        # Case 2: MPI_RGET — request completion is local *and* remote.
        req = storage.win.rget(out, target, offset)
        self._implicit_gets.append(req)
        return req

    # -- events (§3.4) ------------------------------------------------------------------------

    def _new_event_storage(self, event_id: int, team: "Team", nslots: int) -> EventStorage:
        if self.event_impl != "atomics":
            return super()._new_event_storage(event_id, team, nslots)
        win = self.mpi.win_allocate(shape=nslots, dtype=np.int64, comm=team.handle)
        win.lock_all()
        san = self.ctx.sanitizer
        if san is not None:
            # Runtime-internal counter storage: the busy-poll reads and
            # accumulate notifies are synchronization, not data accesses.
            san.exempt_window(win.win_id)
        return _AtomicEventStorage(self, event_id, team, nslots, win)

    def _flush_windows_steps(self, reason: str):
        """Remote completion on every window: MPI_WIN_FLUSH_ALL — the
        linear-in-P cost of Figure 4 when the epoch has activity, a cheap
        constant-cost walk when idle (why the paper's NOTIFY *microbenchmark*
        stays flat in P) — or, with ``use_rflush``, §5's proposal: requests at
        constant software cost, waited on while polling AMs."""
        if not self.use_rflush:
            for win in self._windows:
                yield from win._flush_all_steps()
            return
        requests = []
        for win in self._windows:
            requests.append((yield from win._rflush_all_steps()))
        yield from self._waitall_steps(requests, reason)

    def _notify_steps(self, storage: EventStorage, target: int, slot: int):
        # The release barrier (§3.4): local completion of all initiated ops
        # (polling AMs meanwhile), then remote completion.
        requests = self._am_sends + self._implicit_puts + self._implicit_gets
        self._am_sends, self._implicit_puts, self._implicit_gets = [], [], []
        yield from self._waitall_steps(requests, "event_notify.waitall")
        yield from self._flush_windows_steps("release.rflush_all")
        target_world = storage.team.world_rank(target)
        san = self.ctx.sanitizer
        if san is not None:
            # The release barrier above makes everything we did so far
            # happen-before the matching consumed wait on the target.
            san.event_notified(self.ctx.rank, (storage.event_id, target_world, slot))
        if isinstance(storage, _AtomicEventStorage):
            # §3.4 approach 1: MPI_FETCH_AND_OP-style one-sided increment.
            win = storage.win
            op = win._raccumulate_steps(np.ones(1, np.int64), target, slot, SUM)
            yield from self._flushed_steps(win, op, target)
            return
        # §3.4 approach 2 (the paper's choice): a short AM via MPI_ISEND
        # (nonblocking to avoid notify/wait deadlock cycles).
        yield from self._send_thunk_steps(
            target_world, self.AM_BYTES, self._post_thunk(storage.event_id, slot)
        )

    _ATOMIC_POLL_INTERVAL = 2.5e-7
    _ATOMIC_POLL_LIMIT = 200_000  # ~50 ms of virtual spinning before giving up

    def _await_event_steps(self, storage: EventStorage, ready: Callable[[], bool], reason: str):
        if not isinstance(storage, _AtomicEventStorage):
            return super()._await_event_steps(storage, ready, reason)
        return self._atomic_await_steps(ready, reason)

    def _atomic_await_steps(self, ready: Callable[[], bool], reason: str):
        # Busy-wait on the local counter (the MPI_COMPARE_AND_SWAP polling
        # loop of §3.4), turning the progress engine as we spin; a timed
        # wait's timer makes ``ready`` true when it expires.
        for _ in range(self._ATOMIC_POLL_LIMIT):
            yield from self._progress_steps()
            if ready():
                return
            yield self._ATOMIC_POLL_INTERVAL
        raise CafError(
            f"atomic {reason} spun out: pass timeout= to bound the wait, or "
            "check that a notify targets this image and slot"
        )

    # -- implicit synchronization (§3.5) ----------------------------------------------------------

    def _cofence_steps(self, *, puts: bool = True, gets: bool = True):
        requests: list[Request] = []
        if puts:
            requests += self._implicit_puts
            self._implicit_puts = []
        if gets:
            requests += self._implicit_gets
            self._implicit_gets = []
        return self._waitall_steps(requests, "cofence.waitall")

    def _quiet_steps(self):
        yield from self._cofence_steps()
        # The release barrier also waits the AM sends.
        yield from self._waitall_steps(self._am_sends, "quiet.waitall")
        self._am_sends = []
        yield from self._flush_windows_steps("quiet.rflush_all")

    def collective_async(self, team: "Team", kind: str, args: tuple):
        """CAF 2.0 asynchronous collectives map straight onto the MPI-3
        nonblocking collectives (one of the paper's interoperability wins)."""
        return getattr(team.handle, "i" + kind)(*args)
