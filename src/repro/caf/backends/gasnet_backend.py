"""CAF-GASNet: the original CAF 2.0 runtime design over GASNet.

* **Coarrays** live at segment offsets; remote references are
  ``(image, address)`` tuples (the paper's §3.1 description of the
  original runtime). Blocking read/write are RDMA get/put — lower per-op
  software overhead than MPICH RMA, which is why CAF-GASNet wins the
  fine-grained RandomAccess benchmark at low scale (Figure 3).
* **Events**: ``event_notify`` waits on the image's outstanding put
  handles (GASNet tracks remote completion per handle, so there is no
  FLUSH_ALL analogue) and then fires a single short AM — near-zero cost,
  matching the Figure 4 decomposition where CAF-GASNet's notify time is
  negligible and the waiting shows up in ``event_wait`` instead.
* **Collectives**: GASNet has none, so the runtime hand-rolls them from
  puts and AMs (:mod:`repro.gasnet.collectives`) — the FFT-losing
  all-to-all of Figures 6-8.
* ``am_writes=True`` switches coarray writes to the Active-Message path
  (data + ack via AMs), which *requires target-side progress*: the
  configuration that makes the paper's Figure 2 program deadlock.

Every blocking call is one script over :mod:`repro.gasnet`'s: the steps are
here, the entry point that parks the image on them once in ``RuntimeBackend``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.caf.backend import EventStorage, RuntimeBackend
from repro.caf.teams import next_team_id
from repro.gasnet.collectives import TEAM_SIGNAL_HANDLER_BASE, PeerBases, TeamExchange
from repro.gasnet.core import GasnetWorld, Handle, Token
from repro.gasnet.segment import SegmentAllocator
from repro.sim.agent import WorkerAgent
from repro.mpi.world import MpiWorld
from repro.sim.sync import SimEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.teams import Team
    from repro.sim.cluster import RankCtx

#: AM handler index used by the runtime (team signal handlers live at
#: TEAM_SIGNAL_HANDLER_BASE and above).
H_THUNK = 2

DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024


class _CoarrayStorage:
    """(image, address) remote references: per-member segment offsets."""

    def __init__(self, team: "Team", offsets: tuple[int, ...], nelems: int, dtype: np.dtype):
        self.team = team
        self.offsets = offsets  # team index -> byte offset in that image's segment
        self.nelems = nelems
        self.dtype = np.dtype(dtype)

    def byte_runs(self, index: int, runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """(element offset, length) runs of member ``index``'s coarray as
        (byte offset, nbytes) runs of its segment."""
        base, item = self.offsets[index], self.dtype.itemsize
        return [(base + off * item, length * item) for off, length in runs]


class GasnetBackend(RuntimeBackend):
    name = "caf-gasnet"
    AM_BYTES = 32  # a short AM on the wire
    SHIP_BYTES = 240

    def __init__(self, ctx: "RankCtx", options: dict[str, Any] | None = None):
        super().__init__(ctx)
        self.options = dict(options or {})
        segment_bytes = int(self.options.get("segment_bytes", DEFAULT_SEGMENT_BYTES))
        #: Figure 2 mode: writes go via AMs and need target progress.
        self.am_writes = bool(self.options.get("am_writes", False))
        self.gasnet = GasnetWorld.get(ctx.cluster).attach(ctx, segment_bytes)
        self._activity = self.gasnet.activity
        self.allocator = SegmentAllocator(segment_bytes)
        #: Outstanding nonblocking handles (the release barrier), split by
        #: direction for §3.5's selective cofence.
        self._outstanding_puts: list[Handle] = []
        self._outstanding_gets: list[Handle] = []
        self._mpi = None
        #: team id -> (progress agent, async-twin TeamExchange), see
        #: :meth:`_async_twin`.
        self._twins: dict[int, tuple[WorkerAgent, TeamExchange]] = {}
        self.gasnet.register_handler(H_THUNK, self._on_thunk)

    # -- facade for hybrid applications ------------------------------------

    def mpi_facade(self):
        """Hybrid MPI+CAF: initializes a *second*, independent runtime —
        the duplicated-resources situation of Figure 1."""
        if self._mpi is None:
            self._mpi = MpiWorld.get(self.ctx.cluster).init(self.ctx)
        return self._mpi

    # -- Active Messages ----------------------------------------------------------

    def _on_thunk(self, token: Token, *rest):
        # Short form: (seq,). Medium form: (payload, seq) — the payload is
        # padding that models the wire size; the real arguments travel on
        # the out-of-band board.
        return self._run_thunk(token.src, rest[-1])

    def _send_thunk_steps(self, target_world: int, wire_bytes: int, thunk: Callable[..., Any]):
        g = self.gasnet
        pad = None
        if wire_bytes > 64:
            pad = g._medium_payload(np.zeros(wire_bytes - self.AM_BYTES, np.uint8))
        return g._am_inject_steps(target_world, H_THUNK, (self._board(thunk),), pad, None)

    # -- teams ----------------------------------------------------------------------

    def make_world_team_handle(self, team: "Team") -> TeamExchange:
        # Constructed first thing on every image, before any allocation can
        # skew segment tops, so the symmetric-base default is valid.
        return TeamExchange(
            self.gasnet, team.team_id, team.members, team.my_index, self.allocator
        )

    def split_team_handle(self, parent: "Team", color: int, key: int, entry):
        # Sibling teams of different sizes skew segment tops, so members
        # exchange their arena/flag/drain base offsets over the parent
        # team; the combine builds each new team's table once.
        exchange = None
        contribution = None
        if entry is not None:
            team_id, members, my_index = entry
            exchange = TeamExchange(
                self.gasnet, team_id, members, my_index, self.allocator
            )
            contribution = (team_id, my_index, exchange.bases)

        def combine(args):
            rows: dict[int, dict[int, tuple[int, int, int]]] = {}
            for c in args.values():
                if c is not None:
                    tid, index, bases = c
                    rows.setdefault(tid, {})[index] = bases
            return {
                tid: PeerBases.of(bases for _index, bases in sorted(by_index.items()))
                for tid, by_index in rows.items()
            }

        tables = self.agree(parent, contribution, combine)
        if exchange is None:
            return None
        exchange.set_peer_bases(tables[exchange.team_id])
        return exchange

    def shrink_team_handle(self, parent: "Team", team: "Team"):
        # The first survivor builds every survivor's exchange, each on that
        # survivor's own conduit and segment, and their one base table:
        # nobody waits for a member that may never come.
        cluster = self.ctx.cluster

        def build() -> dict[int, TeamExchange]:
            images = cluster.shared("caf-images", dict)
            exchanges = {}
            for index, w in enumerate(team.members):
                backend = images[w].backend
                exchanges[w] = TeamExchange(
                    backend.gasnet, team.team_id, team.members, index, backend.allocator
                )
            peers = PeerBases.of(x.bases for x in exchanges.values())
            for exchange in exchanges.values():
                exchange.set_peer_bases(peers)
            return exchanges

        # Transfers to failed images are abandoned with their team: no
        # later sync reports them.
        failed = cluster.failed_ranks
        self._outstanding_puts = [h for h in self._outstanding_puts if h.peer not in failed]
        self._outstanding_gets = [h for h in self._outstanding_gets if h.peer not in failed]
        return cluster.shared(("caf-gasnet-shrink", team.team_id), build)[self.ctx.rank]

    # -- coarrays ----------------------------------------------------------------------

    def allocate_coarray(self, team: "Team", nelems: int, dtype: np.dtype):
        dtype = np.dtype(dtype)
        my_offset = self.allocator.alloc(nelems * dtype.itemsize)
        offsets = self.agree(
            team, my_offset, lambda args: tuple(args[i] for i in range(len(args)))
        )
        return _CoarrayStorage(team, offsets, nelems, dtype)

    def local_view(self, storage: _CoarrayStorage) -> np.ndarray:
        start = storage.offsets[storage.team.my_index]
        seg = self.gasnet.segment
        view = seg[start : start + storage.nelems * storage.dtype.itemsize].view(storage.dtype)
        san = self.ctx.sanitizer
        if san is not None:
            from repro.sanitizer.view import tracked_view

            return tracked_view(
                view, san, ("seg", self.ctx.rank), self.ctx.rank, base=seg
            )
        return view

    def _write_steps(self, storage: _CoarrayStorage, target: int, runs: list, data: np.ndarray):
        target_world = storage.team.world_rank(target)
        byte_runs = storage.byte_runs(target, runs)
        if self.am_writes:
            return self._am_write_steps(target_world, byte_runs, data)
        return self.gasnet._put_steps(target_world, byte_runs, data)

    def _store_at(self, target_world: int, byte_runs: list, data: np.ndarray) -> None:
        """Body of an AM-write handler: the target stores ``data`` over the
        (byte offset, nbytes) runs of its own segment."""
        seg = self.gasnet.segment_of(target_world)
        raw = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        cursor = 0
        for start, n in byte_runs:
            seg[start : start + n] = raw[cursor : cursor + n]
            cursor += n
        san = self.ctx.sanitizer
        if san is not None:
            # Handler runs on the target after merging the sender clock,
            # so this write is ordered like a local store there.
            san.record_local(
                target_world, ("seg", target_world),
                [(start, start + n) for start, n in byte_runs], "am-write",
            )

    def _am_write_steps(self, target_world: int, byte_runs: list, data: np.ndarray):
        """Figure 2 mode: write needs the target to run an AM handler."""
        acks = [0]

        def ack(here) -> None:
            acks[0] += 1
            here.kick()

        def on_target(here):
            self._store_at(target_world, byte_runs, data)
            # The ack is a request of the target's (it takes a credit and
            # may wait for one), not a GASNet reply: the thunk's own steps.
            return here._send_thunk_steps(self.ctx.rank, self.AM_BYTES, ack)

        yield from self._send_thunk_steps(
            target_world, self.AM_BYTES + data.nbytes, on_target
        )
        yield from self.gasnet._block_until_steps(
            self.gasnet._unless_failed(
                lambda: acks[0] > 0, (self.ctx.rank, target_world), "am_write ack"
            ),
            "am_write ack",
        )

    def _read_steps(self, storage: _CoarrayStorage, target: int, runs: list, out: np.ndarray):
        return self.gasnet._get_steps(
            out, storage.team.world_rank(target), storage.byte_runs(target, runs)
        )

    def coarray_write_async(
        self, storage: _CoarrayStorage, target: int, offset: int, data: np.ndarray, *,
        dest_event: tuple[Any, int] | None,
    ) -> SimEvent | None:
        target_world = storage.team.world_rank(target)
        byte_runs = storage.byte_runs(target, [(offset, data.size)])
        if dest_event is not None:
            # Long-AM style: data lands in the target coarray, then the
            # handler posts the destination event there. The payload is
            # copied now, as a long AM's source buffer is, so the caller may
            # reuse ``data`` at once.
            ev_storage, slot = dest_event
            event_id = ev_storage.event_id
            data_copy = data.copy()

            def on_target(here) -> None:
                self._store_at(target_world, byte_runs, data_copy)
                here._post(event_id, slot)

            self.send_thunk(target_world, self.AM_BYTES + data_copy.nbytes, on_target)
            return None
        h = self.gasnet.put_nb(target_world, byte_runs[0][0], data)
        self._outstanding_puts.append(h)
        return h.event

    def coarray_read_async(
        self, storage: _CoarrayStorage, target: int, offset: int, out: np.ndarray
    ) -> SimEvent:
        start = storage.byte_runs(target, [(offset, out.size)])[0][0]
        h = self.gasnet.get_nb(out, storage.team.world_rank(target), start)
        self._outstanding_gets.append(h)
        return h.event

    # -- events --------------------------------------------------------------------------

    def _notify_steps(self, storage: EventStorage, target: int, slot: int):
        # GASNet handles already represent remote completion, so the release
        # barrier is a (usually instant) handle sync — no FLUSH_ALL analogue.
        yield from self._cofence_steps()
        target_world = storage.team.world_rank(target)
        san = self.ctx.sanitizer
        if san is not None:
            # Handles synced above: our snapshot dominates every completed op.
            san.event_notified(self.ctx.rank, (storage.event_id, target_world, slot))
        yield from self._send_thunk_steps(
            target_world, self.AM_BYTES, self._post_thunk(storage.event_id, slot)
        )

    # -- implicit synchronization -------------------------------------------------------------

    def _cofence_steps(self, *, puts: bool = True, gets: bool = True):
        handles: list[Handle] = []
        if puts:
            handles += self._outstanding_puts
            self._outstanding_puts = []
        if gets:
            handles += self._outstanding_gets
            self._outstanding_gets = []
        # wait_syncnb_all, turning the CAF progress engine meanwhile.
        yield from self._progress_wait_steps(self.gasnet._synced(handles), "wait_syncnb_all")
        self.gasnet._san_release(handles)

    def _quiet_steps(self):
        return self._cofence_steps()

    # -- asynchronous collectives ----------------------------------------------------------------

    def _async_twin(self, team: "Team"):
        """Per-team machinery for asynchronous collectives: a progress
        agent plus an "async twin" TeamExchange (own AM handler index,
        arena and flags), so agent-driven collectives never race the
        application's blocking ones.
        """
        if team.team_id not in self._twins:
            # Collectively agree on the twin's id and exchange segment bases.
            def combine(args):
                # Twin ids draw from the team-id space so their AM handler
                # indices can never collide with real teams'.
                return (
                    next_team_id(self.ctx.cluster),
                    PeerBases.of(args[i] for i in range(len(args))),
                )

            # Allocate before agreeing so bases can be exchanged in one round.
            agent = WorkerAgent(self.ctx, name=f"caf-async{self.ctx.rank}.t{team.team_id}")
            gasnet_view = self.gasnet.clone_for(agent.ctx)
            provisional = TeamExchange(
                gasnet_view,
                # Temporary unique id; re-registered below once agreed. Use
                # a per-image placeholder far above the shared space.
                team_id=None,  # type: ignore[arg-type]
                members=team.members,
                my_index=team.my_index,
                allocator=self.allocator,
                defer_handler=True,
            )
            twin_id, peers = self.agree(team, provisional.bases, combine)
            provisional.team_id = twin_id
            provisional.register_handler()
            # The agent may only ever run this twin's signal handler.
            gasnet_view.default_handler_filter = {
                TEAM_SIGNAL_HANDLER_BASE + twin_id
            }
            provisional.set_peer_bases(peers)
            self._twins[team.team_id] = (agent, provisional)
        return self._twins[team.team_id]

    def collective_async(self, team: "Team", kind: str, args: tuple):
        agent, twin = self._async_twin(team)
        return agent.submit(lambda agent_ctx: getattr(twin, kind)(*args))

    # -- progress -----------------------------------------------------------------------------------------

    def _poll_steps(self):
        g = self.gasnet
        ran = yield from g._poll_steps()
        # More AMs this caller may handle arrived mid-poll.
        return bool(ran and g.am_queue)
