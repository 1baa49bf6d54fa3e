"""Communicators: groups, context ids, dup/split, and the per-rank facade.

A :class:`_CommState` is the shared (library-side) state of one
communicator: its group, its matching contexts (user, collective,
nonblocking-collective), and the boards of its agreements (``split``,
window creation). A :class:`Comm` is one rank's view of that state — the
object application code holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.mpi import collectives as coll
from repro.mpi import p2p
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.p2p import Matching
from repro.mpi.request import Request, recorded_steps
from repro.mpi.status import Status
from repro.sim.sync import agree_steps, split_groups
from repro.util.errors import MpiError, MpiProcFailedError, MpiRevokedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.world import MpiWorld
    from repro.sim.cluster import RankCtx


class _CommState:
    """Shared library state of one communicator."""

    def __init__(self, world: "MpiWorld", group: tuple[int, ...], context_id: int):
        self.world = world
        self.group = group  # comm rank -> world rank
        self.context_id = context_id
        n = len(group)
        self.user = Matching(n, f"comm{context_id}.user")
        self.coll = Matching(n, f"comm{context_id}.coll")
        # Nonblocking collectives run on progress agents in their own
        # context, so they can overlap blocking traffic.
        self.nbc = Matching(n, f"comm{context_id}.nbc")
        # Per-rank collective sequence numbers (become internal tags).
        self.coll_seq = [0] * n
        self.nbc_seq = [0] * n
        # Agreements (:meth:`Comm._agree_steps`): each rank's next sequence
        # number — collectives are called in the same order on every rank,
        # so these agree — and seq -> {"args": {rank: contribution}}, later
        # {"result": ...}.
        self.agree_seq = [0] * n
        self.agree_boards: dict[int, dict[str, Any]] = {}
        #: ULFM revocation: None, or the message of the error every pending
        #: and later op raises (set by :meth:`Comm.revoke`, checked on every
        #: p2p entry so the error propagates comm-wide).
        self.revoked: str | None = None
        # ULFM eager failure: when a group member dies, pending receives
        # from it (and rendezvous sends parked at it) complete in error
        # instead of hanging forever, and so do its own pending receives.
        world.failure_listeners.append(self._on_rank_failure)

    def _on_rank_failure(self, world_rank: int) -> None:
        """Scheduler-context: a world rank died; fail pending ops on it."""
        if world_rank not in self.group:
            return
        c = self.group.index(world_rank)
        for matching in (self.user, self.coll, self.nbc):
            # Its own receives: a rank declared failed may be alive, but nobody
            # sends to it any more.
            pending, matching.posted[c][:] = matching.posted[c][:], []
            for posted in pending:
                posted._fail(p2p._declared_failed(c, posted))
            for dst in range(len(self.group)):
                still = []
                for posted in matching.posted[dst]:
                    if posted.src == c:
                        posted._fail(
                            MpiProcFailedError(
                                world_rank,
                                f"pending receive from failed peer {c} (world rank "
                                f"{world_rank}): shrink the communicator over the "
                                "survivors, or restart from a checkpoint",
                            )
                        )
                    else:
                        still.append(posted)
                matching.posted[dst][:] = still
            # Rendezvous RTS envelopes parked at the dead rank: the payload
            # will never move, so the senders' requests fail now.
            for env in matching.unexpected[c]:
                if env.rendezvous is not None:
                    env.rendezvous._fail(
                        MpiProcFailedError(
                            world_rank,
                            f"rendezvous send to failed peer {c} (world rank "
                            f"{world_rank}): shrink the communicator over the "
                            "survivors, or restart from a checkpoint",
                        )
                    )
            matching.unexpected[c].clear()

    def _revoke(self, message: str | None = None) -> None:
        """Scheduler-safe revocation: fail every pending p2p operation."""
        if self.revoked:
            return
        exc = MpiRevokedError(self.context_id, message)
        self.revoked = str(exc)
        for matching in (self.user, self.coll, self.nbc):
            for dst in range(len(self.group)):
                pending, matching.posted[dst][:] = matching.posted[dst][:], []
                for posted in pending:
                    posted._fail(exc)
                for env in matching.unexpected[dst]:
                    if env.rendezvous is not None:
                        env.rendezvous._fail(exc)
                # Wake blocked probes so they re-check the flag.
                matching.arrivals[dst].add()


class Comm:
    """One rank's handle on a communicator.

    ``space`` selects which internal matching context collectives use:
    "coll" for the blocking entry points, "nbc" for the agent-side views
    that execute nonblocking collectives.
    """

    def __init__(self, state: _CommState, ctx: "RankCtx", rank: int, space: str = "coll"):
        self.state = state
        self.ctx = ctx
        self.rank = rank
        self.size = len(state.group)
        #: The matching context and sequence numbers its collectives use.
        nbc = space == "nbc"
        self._coll_matching = state.nbc if nbc else state.coll
        self._coll_seq_list = state.nbc_seq if nbc else state.coll_seq
        #: This rank's nonblocking-collective progress agent for this
        #: communicator and its agent-side view, made at the first NBC.
        self._nbc: tuple[Any, Comm] | None = None

    # -- identity ---------------------------------------------------------

    def check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise MpiError(f"peer rank {peer} out of range [0, {self.size})")
        self.check_alive(peer)

    # -- ULFM-style failure handling ---------------------------------------

    def check_alive(self, peer: int) -> None:
        """Raise :class:`MpiProcFailedError` if ``peer`` has crashed.

        Modeled on ULFM's MPI_ERR_PROC_FAILED: operations that name a dead
        process fail eagerly instead of hanging.
        """
        w = self.state.group[peer]
        if w in self.ctx.cluster.failed_ranks:
            raise MpiProcFailedError(w, (
                f"peer {peer} (world rank {w}) has failed: shrink the "
                "communicator over the survivors, or restart from a checkpoint"
            ))

    def failed_ranks(self) -> list[int]:
        """Comm ranks of group members known to have crashed
        (ULFM's MPIX_Comm_failure_ack/get_acked query)."""
        failed = self.ctx.cluster.failed_ranks
        return [r for r, w in enumerate(self.state.group) if w in failed]

    def check_revoked(self) -> None:
        """Raise :class:`MpiRevokedError` if this communicator is revoked."""
        if self.state.revoked:
            raise MpiRevokedError(self.state.context_id, self.state.revoked)

    def revoke(self) -> None:
        """ULFM's MPIX_COMM_REVOKE: poison the communicator everywhere.

        Any surviving rank that has detected a failure calls this; every
        pending receive (on any rank) completes with
        :class:`MpiRevokedError` and every future operation raises it, so
        ranks blocked on *live* peers — who themselves stopped because of
        the dead one — are interrupted too. Recovery then proceeds through
        :meth:`shrink`.
        """
        self.state._revoke()

    def shrink(self) -> "Comm":
        """ULFM's MPIX_COMM_SHRINK: a new communicator over the survivors.

        Every surviving rank must call this. Dead ranks cannot participate
        in a collective, so the first survivor to shrink this communicator
        builds its successor for every survivor, from the failed set it
        sees, in the cluster's shared table (the simulation-level stand-in
        for ULFM's fault-tolerant agreement protocol). The failed set only
        grows, so a later caller is either in it (and refused) or in the
        successor's group.
        """
        failed = self.ctx.cluster.failed_ranks
        my_world = self.state.group[self.rank]
        if my_world in failed:
            raise MpiError(
                f"rank {self.rank} called shrink() but the run has declared it "
                "failed (a crash or a transport give-up): only survivors "
                "shrink, so end this rank's program instead of recovering it"
            )
        world = self.state.world

        def build() -> _CommState:
            survivors = tuple(w for w in self.state.group if w not in failed)
            return _CommState(world, survivors, world.next_context_id())

        new_state = self.ctx.cluster.shared(("mpi-shrink", self.state.context_id), build)
        return Comm(new_state, self.ctx, new_state.group.index(my_world))

    # -- point-to-point (user context) -------------------------------------

    def isend(self, buf, dest: int, tag: int = 0) -> Request:
        return p2p.isend(self, self.state.user, buf, dest, tag)

    def irecv(self, buf, source: int, tag: int = ANY_TAG) -> Request:
        return p2p.irecv(self, self.state.user, buf, source, tag)

    def send(self, buf, dest: int, tag: int = 0) -> None:
        self.ctx.proc.run_script(self._send_steps(self.state.user, buf, dest, tag))

    def recv(self, buf, source: int, tag: int = ANY_TAG) -> Status:
        return self.ctx.proc.run_script(
            self._recv_steps(self.state.user, buf, source, tag)
        )

    def sendrecv(
        self, sendbuf, dest: int, recvbuf, source: int, sendtag: int = 0, recvtag: int = ANY_TAG
    ) -> Status:
        return self.ctx.proc.run_script(
            self._sendrecv_steps(
                self.state.user, sendbuf, dest, sendtag, recvbuf, source, recvtag
            )
        )

    # Blocking p2p as scripts (see ``Proc.run_script``), on any context.

    def _send_steps(self, matching: Matching, buf, dest: int, tag: int):
        req = yield from p2p.isend_steps(self, matching, buf, dest, tag)
        yield from req._wait_steps()

    def _recv_steps(self, matching: Matching, buf, source: int, tag: int):
        req = yield from p2p.irecv_steps(self, matching, buf, source, tag)
        return (yield from req._wait_steps())

    def _sendrecv_steps(
        self, matching: Matching, sendbuf, dest: int, sendtag: int,
        recvbuf, source: int, recvtag: int,
    ):
        rreq = yield from p2p.irecv_steps(self, matching, recvbuf, source, recvtag)
        sreq = yield from p2p.isend_steps(self, matching, sendbuf, dest, sendtag)
        yield from sreq._wait_steps()
        return (yield from rreq._wait_steps())

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        env = p2p.probe(self, self.state.user, source, tag, blocking=True)
        assert env is not None
        return Status(source=env.src, tag=env.tag, count=env.nbytes)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[bool, Status | None]:
        env = p2p.probe(self, self.state.user, source, tag, blocking=False)
        if env is None:
            return False, None
        return True, Status(source=env.src, tag=env.tag, count=env.nbytes)

    # -- internal p2p on the collective context ----------------------------

    def _coll_send_steps(self, buf, dest: int, tag: int):
        return self._send_steps(self._coll_matching, buf, dest, tag)

    def _coll_recv_steps(self, buf, source: int, tag: int):
        return self._recv_steps(self._coll_matching, buf, source, tag)

    def _coll_sendrecv_steps(self, sendbuf, dest: int, recvbuf, source: int, tag: int):
        return self._sendrecv_steps(
            self._coll_matching, sendbuf, dest, tag, recvbuf, source, tag
        )

    def _next_coll_tag(self) -> int:
        seq_list = self._coll_seq_list
        tag = seq_list[self.rank]
        seq_list[self.rank] += 1
        return tag

    # -- collectives --------------------------------------------------------

    def _observed(self, kind: str, steps, *moved):
        """``steps`` (one collective's script) — followed, when metrics are
        on, by its ``mpi.coll.<kind>`` record of the bytes of ``moved``."""
        obs = self.ctx.metrics
        if obs is None:
            return steps
        return recorded_steps(
            obs, self.ctx.engine, self.state.group[self.rank], "mpi.coll." + kind,
            sum(np.asarray(buf).nbytes for buf in moved), steps,
        )

    def _run_coll(self, kind: str, steps, *moved) -> None:
        self.ctx.proc.run_script(self._observed(kind, steps, *moved))

    def _barrier_steps(self):
        """:meth:`barrier` as a script, for protocols that contain one."""
        return self._observed("barrier", coll.barrier_steps(self))

    def barrier(self) -> None:
        self.ctx.proc.run_script(self._barrier_steps())

    def bcast(self, buf, root: int = 0) -> None:
        self._run_coll("bcast", coll.bcast_steps(self, buf, root), buf)

    def reduce(self, sendbuf, recvbuf, op=None, root: int = 0) -> None:
        self._run_coll(
            "reduce", coll.reduce_steps(self, sendbuf, recvbuf, op, root), sendbuf
        )

    def allreduce(self, sendbuf, recvbuf, op=None) -> None:
        self._run_coll(
            "allreduce", coll.allreduce_steps(self, sendbuf, recvbuf, op), sendbuf
        )

    def alltoall(self, sendbuf, recvbuf) -> None:
        self._run_coll("alltoall", coll.alltoall_steps(self, sendbuf, recvbuf), sendbuf)

    def allgather(self, sendbuf, recvbuf) -> None:
        self._run_coll(
            "allgather", coll.allgather_steps(self, sendbuf, recvbuf), sendbuf
        )

    # -- nonblocking collectives (MPI-3) -------------------------------------

    def _submit_nbc(self, kind: str, steps) -> Request:
        """Queue a collective — ``steps(view)`` is its script — on this
        comm's progress agent (FIFO per comm, so every rank's agent executes
        the same sequence — the MPI NBC ordering requirement)."""
        if self._nbc is None:
            from repro.sim.agent import WorkerAgent

            agent = WorkerAgent(
                self.ctx, name=f"nbc{self.ctx.rank}.c{self.state.context_id}"
            )
            self._nbc = (agent, Comm(self.state, agent.ctx, self.rank, space="nbc"))
        agent, view = self._nbc
        req = Request("i%s(ctx=%s)", self.ctx.proc, kind, self.state.context_id)
        done = agent.submit(lambda agent_ctx: agent_ctx.proc.run_script(steps(view)))
        # An error on the agent (a dead peer, a revoked communicator) is
        # the request's: its waiter re-raises it.
        done.subscribe(lambda: req.fire() if done.error is None else req._fail(done.error))
        return req

    def ibarrier(self) -> Request:
        """MPI_IBARRIER: request completes when all ranks have entered."""
        return self._submit_nbc("barrier", coll.barrier_steps)

    def ibcast(self, buf, root: int = 0) -> Request:
        return self._submit_nbc("bcast", lambda view: coll.bcast_steps(view, buf, root))

    def ireduce(self, sendbuf, recvbuf, op=None, root: int = 0) -> Request:
        return self._submit_nbc(
            "reduce", lambda view: coll.reduce_steps(view, sendbuf, recvbuf, op, root)
        )

    def iallreduce(self, sendbuf, recvbuf, op=None) -> Request:
        return self._submit_nbc(
            "allreduce", lambda view: coll.allreduce_steps(view, sendbuf, recvbuf, op)
        )

    def ialltoall(self, sendbuf, recvbuf) -> Request:
        return self._submit_nbc(
            "alltoall", lambda view: coll.alltoall_steps(view, sendbuf, recvbuf)
        )

    def iallgather(self, sendbuf, recvbuf) -> Request:
        return self._submit_nbc(
            "allgather", lambda view: coll.allgather_steps(view, sendbuf, recvbuf)
        )

    # -- construction ---------------------------------------------------------

    def _agree_steps(self, contribution: Any, combine):
        """One agreement round over this communicator, as a script
        (:func:`repro.sim.sync.agree_steps` on this comm's board table)."""
        state = self.state
        seq = state.agree_seq[self.rank]
        state.agree_seq[self.rank] += 1
        return agree_steps(
            state.agree_boards, seq, self.rank, contribution, combine, self._barrier_steps
        )

    def split(self, color: int, key: int | None = None) -> "Comm | None":
        """MPI_COMM_SPLIT. ``color < 0`` (MPI_UNDEFINED) yields None."""
        if key is None:
            key = self.rank
        partition = self.ctx.proc.run_script(
            self._agree_steps((color, key), self._partition)
        )
        entry = partition.get(self.rank)
        if entry is None:
            return None
        new_state, new_rank = entry
        return Comm(new_state, self.ctx, new_rank)

    def _partition(self, args: dict[int, tuple[int, int]]):
        """``split``'s result: rank -> (its new communicator's state, its
        rank there), for every rank that named a colour."""
        state = self.state
        result: dict[int, tuple[_CommState, int]] = {}
        for members in split_groups(args):
            new_state = _CommState(
                state.world,
                tuple(state.group[r] for r in members),
                state.world.next_context_id(),
            )
            for new_rank, r in enumerate(members):
                result[r] = (new_state, new_rank)
        return result

    def dup(self) -> "Comm":
        """MPI_COMM_DUP: same group, fresh context."""
        new = self.split(0, self.rank)
        assert new is not None
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm ctx={self.state.context_id} rank={self.rank}/{self.size}>"
