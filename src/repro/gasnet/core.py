"""GASNet core + extended API on the simulated fabric.

Progress model
--------------
RDMA put/get complete purely in the network (no target CPU), like
InfiniBand RDMA. Active Messages land in a per-rank queue and their
handlers run only when the *target* calls :meth:`GasnetRank.poll` — which
every blocking GASNet call does internally (``GASNET_BLOCKUNTIL``
semantics). A process blocked outside GASNet (e.g. in an MPI barrier)
never runs its AM handlers: exactly the interoperability hazard of the
paper's Figure 2.

Every blocking call is a script (``_xxx_steps`` run by
:meth:`repro.sim.engine.Proc.run_script`): its caller parks once, however
many costs, polls and waits the call is made of. An AM handler is what the
GASNet specification says it is — code that may not block and may send at
most one reply — so :meth:`GasnetRank.poll` runs it inline, on whichever
fiber is driving the script, and injects its reply when it returns. A
handler with more to do than that (a runtime's own request, user code for
the rank's own fiber) returns those steps as a script and ``poll`` takes
them.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any

import numpy as np

from repro.gasnet.segment import make_segment
from repro.sim import costs as _costs
from repro.sim.cluster import Cluster, RankCtx
from repro.sim.memory import MB
from repro.sim.sync import Counter, SimEvent, unless_failed
from repro.util.errors import GasnetError, GasnetProcFailedError

AM_MAX_ARGS = 16
AM_MAX_MEDIUM = 65536  # bytes of medium-AM payload


@dataclass
class Handle:
    """Completion handle for a nonblocking put/get (gasnet_handle_t)."""

    kind: str
    #: World rank of the segment's owner: a sync fails if it fails first.
    peer: int
    event: SimEvent = field(default_factory=lambda: SimEvent("gasnet-handle"))
    #: Sanitizer shadow records released when this handle is synced.
    records: list = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.event.is_set


@dataclass
class Token:
    """Handler token: identifies the requester and allows one reply."""

    src: int
    gasnet: "GasnetRank"
    #: Index of the handler this token was made for, and whether the AM
    #: that runs it is itself a reply.
    handler_idx: int = -1
    is_reply: bool = False
    #: ``(handler_idx, args)`` of the reply the handler asked for;
    #: :meth:`GasnetRank.poll` injects it when the handler returns.
    reply: tuple[int, tuple[int, ...]] | None = None

    def reply_short(self, handler_idx: int, *args: int) -> None:
        """AMReplyShort: send a short AM back to the requester.

        GASNet's handler rules (core API, "Active Message Interface"): a
        request handler may reply at most once, to the requester; a reply
        handler may not reply (nor request) at all.
        """
        if self.is_reply:
            raise GasnetError(
                f"handler {self.handler_idx} runs a reply and called "
                "AMReplyShort: GASNet allows no reply from a reply handler"
            )
        if self.reply is not None:
            raise GasnetError(
                f"handler {self.handler_idx} called AMReplyShort twice: "
                "GASNet allows at most one reply per request"
            )
        self.reply = (handler_idx, args)


@dataclass
class _QueuedAM:
    src: int
    handler_idx: int
    args: tuple[int, ...]
    payload: np.ndarray | None  # medium AM payload (bounce buffer copy)
    dest_offset: int | None  # long AM landing offset (data already in segment)
    nbytes: int
    is_reply: bool = False  # replies do not return a flow-control credit
    #: Sender's vector-clock snapshot (sanitized runs): the handler run at
    #: the target is a happens-before edge from the injection.
    clock: tuple | None = None


class GasnetWorld:
    """Shared GASNet library state for one cluster run."""

    @classmethod
    def get(cls, cluster: Cluster) -> "GasnetWorld":
        return cluster.shared("gasnet-world", lambda: cls(cluster))

    def __init__(self, cluster: Cluster):
        self.nranks = cluster.nranks
        self.segments: list[np.ndarray | None] = [None] * cluster.nranks
        self.ranks: dict[int, GasnetRank] = {}
        self.srq_enabled = cluster.spec.srq_active(cluster.nranks)
        #: Per-message destination-NIC occupancy the SRQ adds (Fig. 3).
        self.rx_extra = _costs.srq_penalty(cluster.spec, cluster.nranks)
        self._attached = Counter("gasnet.attached")
        # A rank blocked on a team member that dies must wake to see it.
        cluster.failure_listeners.append(self._on_rank_failure)

    def _on_rank_failure(self, world_rank: int) -> None:
        """Scheduler-context: a rank died; wake every rank's blocked calls
        so their waits re-check (team waits then fail on the dead member)."""
        for g in self.ranks.values():
            g.activity.add()

    def _end_run(self) -> None:
        """gasnet_exit for every rank once the run is over (the cluster ends
        its shared state): the handler tables, bound to the layers above
        that hold the ranks, are emptied and the world forgets its ranks, so
        the finished run is acyclic. Segments stay."""
        for g in self.ranks.values():
            g.handlers.clear()
        self.ranks.clear()

    def attach(self, ctx: RankCtx, segment_bytes: int) -> "GasnetRank":
        """gasnet_init + gasnet_attach for one rank (collective: returns only
        once every rank has attached, like the real bootstrap)."""
        if ctx.rank in self.ranks:
            raise GasnetError(f"rank {ctx.rank} attached to GASNet twice")
        if segment_bytes <= 0:
            raise GasnetError(f"segment size must be positive, got {segment_bytes}")
        self.segments[ctx.rank] = make_segment(segment_bytes)
        g = GasnetRank(self, ctx)
        self.ranks[ctx.rank] = g
        spec = ctx.spec
        nranks = self.nranks
        meta_mb = spec.gasnet_mem_base_mb + spec.gasnet_mem_log_mb * math.log2(
            max(nranks, 2)
        )
        ctx.memory.alloc(ctx.rank, "gasnet/base", meta_mb * MB)
        if not self.srq_enabled:
            # Without the Shared Receive Queue, per-peer receive buffers
            # grow linearly — the memory SRQ exists to save (paper §4.1).
            ctx.memory.alloc(
                ctx.rank, "gasnet/rbuf", spec.gasnet_mem_nosrq_per_rank_mb * MB * nranks
            )
        ctx.memory.alloc(ctx.rank, "gasnet/segment", segment_bytes)
        self._attached.add()
        self._attached.wait_geq(ctx.proc, self.nranks)
        return g


class GasnetRank:
    """Per-rank GASNet facade."""

    def __init__(self, world: GasnetWorld, ctx: RankCtx):
        self.world = world
        self.ctx = ctx
        self.rank = ctx.rank
        self.nranks = world.nranks
        self.handlers: dict[int, Callable[..., Any]] = {}
        self.am_queue: deque[_QueuedAM] = deque()
        #: Restricts which handler indices THIS view may run (progress
        #: agents set it on their clones; None = unrestricted).
        self.default_handler_filter: set[int] | None = None
        #: Bumped on every arrival/completion; blocking calls wait on it.
        self.activity = Counter(f"gasnet.activity[{ctx.rank}]")
        #: AM request/reply flow control: available request slots per peer.
        self._credits: dict[int, int] = {}

    # -- segment ---------------------------------------------------------

    @property
    def segment(self) -> np.ndarray:
        seg = self.world.segments[self.rank]
        assert seg is not None
        return seg

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise GasnetError(f"rank {rank} out of range [0, {self.nranks})")

    def _check_alive(self, rank: int) -> None:
        """Entry-point check: initiating communication with a crashed rank
        fails eagerly. Only called from API entry points (never from
        delivery callbacks, which must survive a peer dying mid-flight)."""
        if rank in self.ctx.cluster.failed_ranks:
            raise GasnetProcFailedError(rank)

    def segment_of(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        seg = self.world.segments[rank]
        if seg is None:
            raise GasnetError(f"rank {rank} has not attached a segment")
        return seg

    def _check_range(self, rank: int, offset: int, nbytes: int) -> None:
        seg = self.segment_of(rank)
        if offset < 0 or offset + nbytes > seg.nbytes:
            raise GasnetError(
                f"segment access [{offset}, {offset + nbytes}) outside rank "
                f"{rank}'s {seg.nbytes}-byte segment"
            )

    # -- active messages ----------------------------------------------------

    def register_handler(self, idx: int, fn: Callable[..., Any]) -> None:
        """Register AM handler ``idx``. Short handlers get ``(token, *args)``;
        medium get ``(token, payload, *args)``; long get
        ``(token, offset, nbytes, *args)``.

        A handler runs inside :meth:`poll`'s script, on whichever fiber is
        driving it: it may not block (``sleep``, ``block`` and every
        blocking call refuse) and replies through its token. What it cannot
        do itself it returns, as a script for ``poll`` to take.
        """
        if idx in self.handlers:
            raise GasnetError(f"handler index {idx} already registered")
        self.handlers[idx] = fn

    def _acquire_credit_steps(self, dest: int):
        """Block (with AM progress) until a request slot to ``dest`` frees.

        Models GASNet's request/reply flow control: a sender cannot run
        unboundedly ahead of the target's handler drain rate, which is what
        bounds the sustained EVENT_NOTIFY rate in the paper's
        microbenchmarks.
        """
        limit = self.ctx.spec.gasnet_am_credits
        if limit is None:
            return
        if self._credits.get(dest, limit) <= 0:
            reason = f"am credits to rank {dest}"
            yield from self._block_until_steps(
                self._unless_failed(
                    lambda: self._credits.get(dest, limit) > 0, (self.rank, dest), reason
                ),
                reason,
            )
        self._credits[dest] = self._credits.get(dest, limit) - 1

    def _credit_returned(self, dest: int) -> None:
        limit = self.ctx.spec.gasnet_am_credits
        if limit is None:
            return
        self._credits[dest] = self._credits.get(dest, limit) + 1
        self.activity.add()

    def _am_inject_steps(
        self,
        dest: int,
        handler_idx: int,
        args: tuple[int, ...],
        payload: np.ndarray | None,
        dest_offset: int | None,
        *,
        is_reply: bool = False,
    ):
        """Inject one AM, as a script: the credit wait, the origin's
        software cost, the message."""
        if len(args) > AM_MAX_ARGS:
            raise GasnetError(f"AM carries {len(args)} args > AMMaxArgs={AM_MAX_ARGS}")
        self._check_rank(dest)
        self._check_alive(dest)
        if not is_reply:
            # Replies have a guaranteed slot; only requests consume credits.
            yield from self._acquire_credit_steps(dest)
        nbytes = 0 if payload is None else payload.nbytes
        yield _costs.cost(self.ctx, "gasnet.am", nbytes)
        wire = 32 + nbytes
        src = self.rank
        target = self.world.ranks.get(dest)
        if target is None:
            raise GasnetError(f"AM to rank {dest}, which has not attached")
        qam = _QueuedAM(
            src=src,
            handler_idx=handler_idx,
            args=args,
            payload=payload,
            dest_offset=dest_offset,
            nbytes=nbytes,
            is_reply=is_reply,
        )
        san = self.ctx.sanitizer
        if san is not None:
            qam.clock = san.snapshot(self.rank)

        def on_delivered() -> None:
            if qam.dest_offset is not None and qam.payload is not None:
                # Long AM: payload lands in the target segment before the
                # handler is queued.
                seg = self.world.segments[dest]
                assert seg is not None
                seg[qam.dest_offset : qam.dest_offset + qam.nbytes] = qam.payload
            target.am_queue.append(qam)
            target.activity.add()

        self.ctx.fabric.send(
            src, dest, wire, on_delivered, rx_extra=self.world.rx_extra
        )

    def am_request_short(self, dest: int, handler_idx: int, *args: int) -> None:
        """AMRequestShort: a few integer arguments, no payload."""
        self.ctx.proc.run_script(
            self._am_inject_steps(dest, handler_idx, args, None, None)
        )

    @staticmethod
    def _medium_payload(payload) -> np.ndarray:
        """The bounce-buffer copy a medium AM carries."""
        data = np.ascontiguousarray(payload).reshape(-1).view(np.uint8).copy()
        if data.nbytes > AM_MAX_MEDIUM:
            raise GasnetError(
                f"medium AM payload {data.nbytes} > AMMaxMedium={AM_MAX_MEDIUM}"
            )
        return data

    def am_request_medium(self, dest: int, handler_idx: int, payload, *args: int) -> None:
        """AMRequestMedium: opaque payload into a target bounce buffer."""
        self.ctx.proc.run_script(
            self._am_inject_steps(
                dest, handler_idx, args, self._medium_payload(payload), None
            )
        )

    def am_request_long(
        self, dest: int, handler_idx: int, payload, dest_offset: int, *args: int
    ) -> None:
        """AMRequestLong: payload lands at a predetermined segment address."""
        data = np.ascontiguousarray(payload).reshape(-1).view(np.uint8).copy()
        self._check_range(dest, dest_offset, data.nbytes)
        self.ctx.proc.run_script(
            self._am_inject_steps(dest, handler_idx, args, data, dest_offset)
        )

    def clone_for(self, ctx) -> "GasnetRank":
        """A view of this rank bound to another execution context.

        Shares every piece of library state (handlers, AM queue, activity
        counter, credits) but charges costs to ``ctx.proc`` — how a library
        progress agent participates in GASNet on the rank's behalf.
        """
        clone = object.__new__(GasnetRank)
        clone.__dict__ = dict(self.__dict__)
        clone.ctx = ctx
        clone.default_handler_filter = None
        return clone

    def poll(self) -> int:
        """gasnet_AMPoll: run queued AM handlers; returns how many ran.

        A view with a :attr:`default_handler_filter` (a progress agent's:
        it must never run application handlers on the wrong execution
        context) runs only those handler indices; others stay queued.
        """
        return self.ctx.proc.run_script(self._poll_steps())

    def _poll_steps(self):
        allowed = self.default_handler_filter
        ctx = self.ctx
        yield _costs.cost(ctx, "gasnet.poll")
        ran = 0
        pending = []
        while self.am_queue:
            qam = self.am_queue.popleft()
            if allowed is not None and qam.handler_idx not in allowed:
                pending.append(qam)
                continue
            yield _costs.cost(ctx, "gasnet.handler")
            handler = self.handlers.get(qam.handler_idx)
            if handler is None:
                raise GasnetError(f"no handler registered at index {qam.handler_idx}")
            san = ctx.sanitizer
            if san is not None:
                # Running the handler is the synchronization edge: the
                # sender's history happened-before this (logical) rank.
                san.merge(self.rank, qam.clock)
            token = Token(qam.src, self, qam.handler_idx, qam.is_reply)
            if qam.dest_offset is not None:
                more = handler(token, qam.dest_offset, qam.nbytes, *qam.args)
            elif qam.payload is not None:
                more = handler(token, qam.payload, *qam.args)
            else:
                more = handler(token, *qam.args)
            if type(more) is GeneratorType:
                yield from more
            if token.reply is not None:
                idx, args = token.reply
                yield from self._am_inject_steps(
                    qam.src, idx, args, None, None, is_reply=True
                )
            ran += 1
            if not qam.is_reply:
                # The implicit reply returns the sender's flow-control
                # credit one wire latency later.
                sender = self.world.ranks.get(qam.src)
                if sender is not None:
                    _costs.charge_in(
                        ctx, "ack",
                        lambda s=sender, d=self.rank: s._credit_returned(d),
                        a=qam.src, b=self.rank,
                    )
        # Re-queue messages this caller wasn't allowed to handle, in order.
        for qam in reversed(pending):
            self.am_queue.appendleft(qam)
        if ran:
            # Handlers mutate state other blocked contexts (progress
            # agents, the main image) may be waiting on; make them re-check.
            # Without this, a context that saw an empty queue while another
            # context was mid-handler misses the state change forever.
            self.activity.add()
        return ran

    def block_until(
        self,
        pred: Callable[[], bool],
        reason: str,
    ) -> None:
        """GASNET_BLOCKUNTIL: poll-and-sleep until ``pred()`` holds.

        Polls AMs on every wake-up, so handlers make progress while this
        image is blocked inside GASNet (and only then). ``pred`` runs
        inside the script, like a handler: it tests, it does not block.
        """
        self.ctx.proc.run_script(self._block_until_steps(pred, reason))

    def _block_until_steps(self, pred: Callable[[], bool], reason: str):
        """:meth:`block_until` as a script."""
        activity = self.activity
        proc = self.ctx.proc
        while True:
            ran = yield from self._poll_steps()
            if pred():
                return
            seen = activity.count
            if ran and self.am_queue:
                continue  # more AMs this caller may handle arrived mid-poll
            yield from activity._wait_geq_steps(proc, seen + 1, reason)

    # -- failures: one rule for every wait ----------------------------------------

    def _unless_failed(
        self, satisfied: Callable[[], bool], peers, reason: str, role: str = "peer"
    ) -> Callable[[], bool]:
        """``satisfied`` under the failure rule (:func:`unless_failed`) of a
        wait that depends on the world ranks ``peers`` (this rank among
        them): it raises :class:`GasnetProcFailedError` naming the failed one."""
        return unless_failed(
            satisfied, self.ctx.cluster.failed_ranks, peers, self._failed_error, reason, role
        )

    def _failed_error(self, dead: int, reason: str, role: str) -> GasnetProcFailedError:
        """The error of the wait ``reason`` on world rank ``dead``, a ``role``."""
        who = "this rank" if dead == self.rank else role
        return GasnetProcFailedError(dead, (
            f"{reason}: {who} world rank {dead} has failed, so it cannot complete: "
            "recover on the survivors (shrink the team) or restart from a checkpoint"
        ))

    # -- one-sided RDMA ---------------------------------------------------------

    def _begin(self, op: str, owner: int, ranges, *, is_write: bool) -> Handle:
        """Start the RDMA op ``<op>_nb`` on ``owner``'s segment: its handle,
        with the access recorded by the sanitizer (a no-op unless the
        cluster sanitizes); the record releases when the handle is synced
        (wait_syncnb[_all])."""
        handle = Handle(kind=f"{op}({'dest' if is_write else 'src'}={owner})", peer=owner)
        san = self.ctx.sanitizer
        if san is not None:
            rec = san.record_remote(
                self.rank, ("seg", owner), ranges, op + "_nb", is_write=is_write
            )
            if rec is not None:
                handle.records.append(rec)
        return handle

    def _san_release(self, handles) -> None:
        san = self.ctx.sanitizer
        if san is None:
            return
        for handle in handles:
            if handle.records:
                san.release_records(handle.records)
                handle.records = []

    def _rdma_write(self, dest: int, runs, arr: np.ndarray, handle: Handle) -> None:
        """Ship an RDMA write as one message: ``arr`` scatters into the
        (byte_offset, nbytes) ``runs`` of ``dest``'s segment at delivery; the
        origin learns of it (``handle`` fires) one ack later."""
        ctx = self.ctx
        me = self
        src = self.rank
        seg = self.segment_of(dest)
        dest_rank = self.world.ranks.get(dest)

        def on_delivered() -> None:
            cursor = 0
            for off, n in runs:
                seg[off : off + n] = arr[cursor : cursor + n]
                cursor += n
            if dest_rank is not None and dest_rank is not me:
                # The destination may be spinning on segment memory
                # (GASNET_BLOCKUNTIL on a flag): let it re-check.
                dest_rank.activity.add()
            _costs.charge_in(
                ctx, "ack", lambda: (handle.event.fire(), me.activity.add()),
                a=src, b=dest,
            )

        ctx.fabric.send(
            src, dest, arr.nbytes + 32, on_delivered,
            rx_extra=self.world.rx_extra,
        )

    def _rdma_read(self, src: int, runs, out: np.ndarray, handle: Handle) -> None:
        """Ship an RDMA read: one request, one response carrying the
        (byte_offset, nbytes) ``runs`` of ``src``'s segment as they are at
        request delivery; ``handle`` fires when they land in ``out``."""
        fabric = self.ctx.fabric
        me = self
        nbytes = out.nbytes

        def at_source() -> None:
            seg = self.segment_of(src)
            payload = np.concatenate(
                [seg[off : off + n] for off, n in runs]
            ) if runs else np.empty(0, np.uint8)

            def at_origin() -> None:
                out.reshape(-1).view(np.uint8)[...] = payload
                handle.event.fire()
                me.activity.add()

            fabric.send(
                src, self.rank, nbytes + 32, at_origin,
                rx_extra=me.world.rx_extra,
            )

        fabric.send(
            self.rank, src, 32, at_source, rx_extra=self.world.rx_extra
        )

    def put_nb(self, dest: int, dest_offset: int, data) -> Handle:
        """gasnet_put_nb: RDMA write; the handle fires on remote completion
        (data commits at delivery; the origin learns of it one ack later).

        Ships a flat view of the source, not a copy: GASNet forbids
        modifying the source until the handle syncs, so the only copy is
        the commit into the destination segment at delivery.
        """
        arr = np.asarray(data)
        return self.ctx.proc.run_script(
            self._put_nb_steps(dest, [(dest_offset, arr.nbytes)], arr)
        )

    def put_runs_nb(self, dest: int, runs: list[tuple[int, int]], data) -> Handle:
        """Strided RDMA write (the GASNet VIS extended API): one message
        scatters ``data`` into the (byte_offset, nbytes) runs of the
        destination segment. One run is a contiguous put_nb and is priced
        and named as one."""
        return self.ctx.proc.run_script(self._put_nb_steps(dest, runs, data))

    def _put_nb_steps(self, dest: int, runs: list[tuple[int, int]], data):
        """The one RDMA write script: ``data`` over the (byte_offset, nbytes)
        ``runs`` of ``dest``'s segment. More than one run pays the pack."""
        arr = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        op = "put" if len(runs) == 1 else "put_runs"
        ranges = self._check_runs(dest, runs, arr.nbytes, "put data")
        yield _costs.cost(self.ctx, "gasnet.put" if op == "put" else "gasnet.put_runs", arr.nbytes)
        handle = self._begin(op, dest, ranges, is_write=True)
        self._rdma_write(dest, runs, arr, handle)
        return handle

    def get_nb(self, dest_buf, src: int, src_offset: int) -> Handle:
        """gasnet_get_nb: RDMA read into ``dest_buf``."""
        out = np.asarray(dest_buf)
        return self.ctx.proc.run_script(
            self._get_nb_steps(out, src, [(src_offset, out.nbytes)])
        )

    def get_runs_nb(self, dest_buf, src: int, runs: list[tuple[int, int]]) -> Handle:
        """Strided RDMA read: gather the source segment's byte runs into
        ``dest_buf`` with one request/response exchange. One run is a
        contiguous get_nb and is priced and named as one."""
        return self.ctx.proc.run_script(self._get_nb_steps(dest_buf, src, runs))

    def _get_nb_steps(self, dest_buf, src: int, runs: list[tuple[int, int]]):
        """The one RDMA read script: the (byte_offset, nbytes) ``runs`` of
        ``src``'s segment into ``dest_buf``, one request/response exchange."""
        out = np.asarray(dest_buf)
        if out.size and not out.flags["C_CONTIGUOUS"]:
            raise GasnetError(
                "get destination must be C-contiguous: pass np.ascontiguousarray(buf) "
                "and copy back, or read into a fresh array"
            )
        op = "get" if len(runs) == 1 else "get_runs"
        ranges = self._check_runs(src, runs, out.nbytes, "get buffer")
        yield _costs.cost(self.ctx, "gasnet.get" if op == "get" else "gasnet.get_runs", out.nbytes)
        handle = self._begin(op, src, ranges, is_write=False)
        self._rdma_read(src, runs, out, handle)
        return handle

    def _check_runs(self, rank: int, runs, nbytes: int, what: str) -> list[tuple[int, int]]:
        """Validate an access of ``nbytes`` over (byte_offset, nbytes) runs
        of ``rank``'s segment; returns them as [lo, hi) byte ranges."""
        ranges = []
        total = 0
        for off, n in runs:
            off, n = int(off), int(n)
            self._check_range(rank, off, n)
            ranges.append((off, off + n))
            total += n
        if nbytes != total:
            raise GasnetError(f"{what} is {nbytes} bytes, runs cover {total}")
        self._check_alive(rank)
        return ranges

    def wait_syncnb(self, handle: Handle) -> None:
        """gasnet_wait_syncnb: block (with AM progress) until the handle
        fires; raise :class:`GasnetProcFailedError` if its peer fails first."""
        self.ctx.proc.run_script(self._wait_syncnb_steps(handle))

    def _wait_syncnb_steps(self, handle: Handle):
        reason = f"wait_syncnb({handle.kind})"
        yield from self._block_until_steps(
            self._unless_failed(lambda: handle.done, (self.rank, handle.peer), reason), reason
        )
        self._san_release((handle,))

    def wait_syncnb_all(self, handles: list[Handle]) -> None:
        self.ctx.proc.run_script(self._wait_syncnb_all_steps(handles))

    def _wait_syncnb_all_steps(self, handles: list[Handle]):
        yield from self._block_until_steps(self._synced(handles), "wait_syncnb_all")
        self._san_release(handles)

    def _synced(self, handles) -> Callable[[], bool]:
        """The predicate of a sync of ``handles``: all done, or raise once
        the peer of one still open has failed."""
        return self._unless_failed(
            lambda: all(h.done for h in handles),
            lambda: (self.rank, *(h.peer for h in handles if not h.done)), "wait_syncnb_all",
        )

    def put(self, dest: int, dest_offset: int, data) -> None:
        """gasnet_put (blocking): returns when remotely complete."""
        arr = np.asarray(data)
        self.ctx.proc.run_script(self._put_steps(dest, [(dest_offset, arr.nbytes)], arr))

    def _put_steps(self, dest: int, runs: list[tuple[int, int]], data):
        handle = yield from self._put_nb_steps(dest, runs, data)
        yield from self._wait_syncnb_steps(handle)

    def get(self, dest_buf, src: int, src_offset: int) -> None:
        """gasnet_get (blocking)."""
        out = np.asarray(dest_buf)
        self.ctx.proc.run_script(self._get_steps(out, src, [(src_offset, out.nbytes)]))

    def _get_steps(self, dest_buf, src: int, runs: list[tuple[int, int]]):
        handle = yield from self._get_nb_steps(dest_buf, src, runs)
        yield from self._wait_syncnb_steps(handle)
