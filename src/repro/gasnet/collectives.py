"""Hand-rolled collectives over GASNet put/get/AM — CAF-GASNet's approach.

GASNet (as of the paper) has no collective operations, so the original
CAF 2.0 runtime crafts them from one-sided puts and signals. The paper's
§4.2/§5 analysis attributes CAF-GASNet's FFT loss to exactly this: the
hand-rolled all-to-all blasts puts at every peer in naive rank order
(incast at the low ranks plus per-message NIC and signal-handling costs)
while ``MPI_ALLTOALL`` uses a tuned pairwise schedule.

A :class:`TeamExchange` is one team's collective engine on one image; its
collectives take the names and arguments of :class:`repro.mpi.comm.Comm`'s
(``bcast(buf, root)``, ``reduce(send, recv, op, root)``, ...), so the CAF
layer calls either through ``team.handle``. Each member owns an **arena**
(scratch landing space) and a **flag array** in its segment; members
exchange base offsets at construction, so scratch
addresses are computed as ``peer_base + delta`` with identical deltas on
every member (robust even when other teams' allocations skewed the
segment tops). Those peer tables are built once per team and shared by its
members' exchanges (:class:`PeerBases`): one image holds nothing sized by
the team but its flag arrays. Completion signalling is conduit-dependent
(``spec.gasnet_coll_signal``): RDMA **flag puts** the receiver spins on
(ibv/aries) or short **Active Messages** (pami).

Each collective is one script (``_xxx_steps``; the public method is
``run_script`` of it), so a member parks once per collective, not once per
put, signal and poll.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from repro.gasnet.core import GasnetRank
from repro.sim import costs as _costs
from repro.gasnet.segment import SegmentAllocator
from repro.sim.sync import agree_steps
from repro.util.errors import GasnetError, GasnetProcFailedError


def _collective(steps):
    """Sanitizer bracket for a team collective's script.

    The body's puts and flag-spins follow the collective's own internal
    protocol (arena landing zones, monotone markers, drain rounds), so
    per-access checking would only flag its deliberate flag races: record
    nothing inside. The collective's *semantics* — every member's history
    happened-before every exit — become one conservative clock merge.
    """

    def bracketed(self, san, body):
        with san.exempt():
            out = yield from body
        san.on_collective(self.gasnet.rank, self.members)
        return out

    @functools.wraps(steps)
    def wrapper(self, *args, **kwargs):
        san = self.gasnet.ctx.sanitizer
        body = steps(self, *args, **kwargs)
        return body if san is None else bracketed(self, san, body)

    return wrapper


#: AM handler index space reserved for team signal handlers.
TEAM_SIGNAL_HANDLER_BASE = 1 << 16

MAX_ARENA_BYTES = 8 * 1024 * 1024


class PeerBases(NamedTuple):
    """Every member's arena, flag and drain base offsets, in member order.

    Built once per team — in the agreement's combine, or once per run for
    the symmetric case — and shared by all the team's exchanges, so the
    tables cost O(P) per team rather than per image.
    """

    arena: tuple[int, ...]
    flags: tuple[int, ...]
    drain: tuple[int, ...]

    @classmethod
    def of(cls, bases: Iterable[tuple[int, int, int]]) -> "PeerBases":
        """From each member's :attr:`TeamExchange.bases`, in member order."""
        arena, flags, drain = zip(*bases)
        return cls(arena, flags, drain)

    @classmethod
    def symmetric(cls, n: int, bases: tuple[int, int, int]) -> "PeerBases":
        arena, flags, drain = bases
        return cls((arena,) * n, (flags,) * n, (drain,) * n)


class TeamExchange:
    """Collectives for one team over GASNet."""

    def __init__(
        self,
        gasnet: GasnetRank,
        team_id: int,
        members: tuple[int, ...],
        my_index: int,
        allocator: SegmentAllocator,
        *,
        defer_handler: bool = False,
    ):
        self.gasnet = gasnet
        self.team_id = team_id
        self.members = members
        self.my_index = my_index
        # A quarter of what's left in the segment, capped.
        self.arena_size = min(MAX_ARENA_BYTES, allocator.free // 4)
        self.arena_base = allocator.alloc(self.arena_size)
        # Monotone per-sender completion flags (one uint64 per member);
        # written with seq+1, so no reset races across collectives. The
        # second array acknowledges that a landing zone has been drained.
        self.flags_base = allocator.alloc(8 * len(members))
        self.drain_base = allocator.alloc(8 * len(members))
        # When members' segment tops are aligned (the common, symmetric
        # case) everyone's bases are equal, and one table per run serves
        # every such team; otherwise the runtime exchanges :attr:`bases`
        # and calls :meth:`set_peer_bases` again.
        self.set_peer_bases(
            gasnet.ctx.cluster.shared(
                ("gasnet-symmetric-bases", len(members), self.bases),
                lambda: PeerBases.symmetric(len(members), self.bases),
            )
        )
        self.seq = 0
        # This member's next agreement number (:meth:`_agree_steps`).
        self.agree_seq = 0
        self._arena_top = 0
        # AM-mode signal counters: (seq, round) -> count received.
        self._signals: dict[tuple[int, int], int] = {}
        if not defer_handler:
            self.register_handler()

    @property
    def bases(self) -> tuple[int, int, int]:
        """This member's ``(arena, flags, drain)`` base offsets: its row of
        the team's :class:`PeerBases`."""
        return (self.arena_base, self.flags_base, self.drain_base)

    def set_peer_bases(self, peers: PeerBases) -> None:
        """Install the team's shared table of every member's bases."""
        self.peer_arena_bases = peers.arena
        self.peer_flag_bases = peers.flags
        self.peer_drain_bases = peers.drain

    def register_handler(self) -> None:
        """Register this team's signal handler (deferred when the team id
        itself is still under collective agreement)."""
        self.gasnet.register_handler(
            TEAM_SIGNAL_HANDLER_BASE + self.team_id, self._on_signal
        )

    @property
    def size(self) -> int:
        return len(self.members)

    # -- arena scratch (identical deltas on every member) --------------------

    def _arena_alloc(self, nbytes: int, align: int = 16) -> int:
        delta = (self._arena_top + align - 1) // align * align
        if delta + nbytes > self.arena_size:
            raise GasnetError(
                f"team arena exhausted: need {nbytes} at {delta}, "
                f"capacity {self.arena_size} (a quarter of the segment left "
                "when the team was made: raise segment_bytes)"
            )
        self._arena_top = delta + nbytes
        return delta

    def _arena_release(self, marker: int) -> None:
        self._arena_top = marker

    def _local_arena(self, delta: int, nbytes: int) -> np.ndarray:
        start = self.arena_base + delta
        return self.gasnet.segment[start : start + nbytes]

    # -- AM-mode signalling ----------------------------------------------------

    def _on_signal(self, token, seq: int, round_no: int) -> None:
        key = (seq, round_no)
        self._signals[key] = self._signals.get(key, 0) + 1

    def _signal_steps(self, peer_index: int, seq: int, round_no: int = 0):
        return self.gasnet._am_inject_steps(
            self.members[peer_index],
            TEAM_SIGNAL_HANDLER_BASE + self.team_id,
            (seq, round_no),
            None,
            None,
        )

    def _wait_signals_steps(self, seq: int, count: int, round_no: int = 0):
        key = (seq, round_no)
        yield from self._team_wait_steps(
            lambda: self._signals.get(key, 0) >= count,
            f"team{self.team_id}.signals(seq={seq},round={round_no})",
        )
        del self._signals[key]

    # -- put-mode flag signalling -------------------------------------------------

    def _flags_view(self, base: int) -> np.ndarray:
        return self.gasnet.segment[base : base + 8 * self.size].view(np.uint64)

    def _put_flag_steps(self, peer_index: int, marker: int, peer_bases: tuple[int, ...]):
        return self.gasnet._put_nb_steps(
            self.members[peer_index],
            [(peer_bases[peer_index] + 8 * self.my_index, 8)],
            np.array([marker], np.uint64),
        )

    def _wait_flags_steps(self, marker: int, base: int):
        flags = self._flags_view(base)
        me, others = self.my_index, self.size - 1

        def every_peer_flagged() -> bool:
            # One vector compare per wake; this member's own slot is no
            # peer's flag, so it is taken back out of the count.
            ge = flags >= marker
            return int(np.count_nonzero(ge)) - int(ge[me]) == others

        return self._team_wait_steps(
            every_peer_flagged, f"team{self.team_id}.flags(marker={marker})"
        )

    def _team_wait_steps(self, satisfied, reason: str):
        """Wait until ``satisfied()``, or fail once a member has died.

        What already arrived still counts: a satisfied wait returns even
        with a dead member. An unsatisfied one raises
        :class:`GasnetProcFailedError` naming the dead member instead of
        parking forever (the world wakes every rank when one fails)."""
        failed = self.gasnet.ctx.cluster.failed_ranks
        members = self.members
        yield from self.gasnet._block_until_steps(
            lambda: satisfied() or (failed and not failed.isdisjoint(members)), reason
        )
        if not satisfied():
            dead = next(w for w in members if w in failed)
            raise GasnetProcFailedError(
                dead, f"{reason}: team member world rank {dead} has failed"
            )

    def _next_seq(self) -> int:
        seq = self.seq
        self.seq += 1
        return seq

    # -- collectives ------------------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier from short AMs.

        Signals are round-tagged: a round-k signal may only satisfy a
        round-k wait, which the dissemination correctness proof requires
        (an untagged counting variant lets subgroups of early arrivers
        release each other before late ranks enter).
        """
        self.gasnet.ctx.proc.run_script(self._barrier_steps())

    @_collective
    def _barrier_steps(self):
        seq = self._next_seq()
        n = self.size
        if n == 1:
            return
        k = 1
        round_no = 0
        while k < n:
            yield from self._signal_steps((self.my_index + k) % n, seq, round_no)
            yield from self._wait_signals_steps(seq, 1, round_no)
            k <<= 1
            round_no += 1

    def _agree_steps(self, contribution, combine):
        """One agreement round over this team, as a script
        (:func:`repro.sim.sync.agree_steps` on the run's board table of
        team agreements)."""
        seq = self.agree_seq
        self.agree_seq += 1
        boards = self.gasnet.ctx.cluster.shared("gasnet-team-agreements", dict)
        return agree_steps(
            boards, (self.team_id, seq), self.my_index, contribution, combine,
            self._barrier_steps,
        )

    def bcast(self, buf, root: int = 0) -> None:
        """Binomial broadcast: puts into the arena + AM signals."""
        self.gasnet.ctx.proc.run_script(self._bcast_steps(buf, root))

    @_collective
    def _bcast_steps(self, buf, root: int = 0):
        seq = self._next_seq()
        arr = np.asarray(buf)
        flat = arr.reshape(-1).view(np.uint8)
        n = self.size
        if n == 1:
            return
        marker = self._arena_top
        land = self._arena_alloc(flat.nbytes)
        vr = (self.my_index - root) % n
        mask = 1
        while mask < n:
            if vr & mask:
                yield from self._wait_signals_steps(seq, 1)
                flat[...] = self._local_arena(land, flat.nbytes)
                yield _costs.cost(self.gasnet.ctx, "copy", flat.nbytes)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vr + mask < n:
                child = ((vr + mask) + root) % n
                yield from self.gasnet._put_steps(
                    self.members[child],
                    [(self.peer_arena_bases[child] + land, flat.nbytes)], flat,
                )
                yield from self._signal_steps(child, seq)
            mask >>= 1
        # Trailing barrier: nobody may start a collective that reuses this
        # arena region before every subtree has received its copy.
        yield from self._barrier_steps()
        self._arena_release(marker)

    def reduce(self, sendbuf, recvbuf, op, root: int = 0) -> None:
        """Gather-to-root into landing slots, then combine at the root.

        The flat (non-tree) structure is deliberately naive — the paper
        notes CAF-GASNet's hand-crafted collectives are "not as performant"
        as MPI's tuned trees.
        """
        self.gasnet.ctx.proc.run_script(self._reduce_steps(sendbuf, recvbuf, op, root))

    @_collective
    def _reduce_steps(self, sendbuf, recvbuf, op, root: int = 0):
        seq = self._next_seq()
        send = np.asarray(sendbuf)
        flat = np.ascontiguousarray(send).reshape(-1)
        nbytes = flat.nbytes
        n = self.size
        marker = self._arena_top
        land = self._arena_alloc(nbytes * n)
        if self.my_index == root:
            if n > 1:
                yield from self._wait_signals_steps(seq, n - 1)
            acc = flat.copy()
            landing = self._local_arena(land, nbytes * n)
            for i in range(n):
                if i == root:
                    continue
                chunk = landing[i * nbytes : (i + 1) * nbytes].view(flat.dtype)
                acc = op(acc, chunk)
                yield _costs.cost(self.gasnet.ctx, "flops", acc.size)
            recv = np.asarray(recvbuf)
            recv.reshape(-1)[...] = acc
            # Ack: peers may not reuse the arena before the root combined.
            for i in range(n):
                if i != root:
                    yield from self._signal_steps(i, seq, round_no=1)
        else:
            yield from self.gasnet._put_steps(
                self.members[root],
                [(self.peer_arena_bases[root] + land + self.my_index * nbytes, flat.nbytes)],
                flat,
            )
            yield from self._signal_steps(root, seq)
            yield from self._wait_signals_steps(seq, 1, round_no=1)
        self._arena_release(marker)

    def allreduce(self, sendbuf, recvbuf, op) -> None:
        self.gasnet.ctx.proc.run_script(self._allreduce_steps(sendbuf, recvbuf, op))

    @_collective
    def _allreduce_steps(self, sendbuf, recvbuf, op):
        recv = np.asarray(recvbuf)
        yield from self._reduce_steps(sendbuf, recv, op)
        yield from self._bcast_steps(recv)

    def allgather(self, sendbuf, recvbuf) -> None:
        """Everyone puts its block into everyone's landing zone (naive)."""
        self.gasnet.ctx.proc.run_script(self._allgather_steps(sendbuf, recvbuf))

    @_collective
    def _allgather_steps(self, sendbuf, recvbuf):
        send = np.ascontiguousarray(np.asarray(sendbuf)).reshape(-1)
        recv = np.asarray(recvbuf)
        n = self.size
        nbytes = send.nbytes
        if recv.shape[0] != n:
            raise GasnetError(f"allgather recvbuf needs leading dimension {n}")
        marker = self._arena_top
        land = self._arena_alloc(nbytes * n)
        seq = yield from self._exchange_steps(
            lambda peer: (send, land + self.my_index * nbytes)
        )
        landing = self._local_arena(land, nbytes * n)
        for i in range(n):
            if i == self.my_index:
                recv[i] = np.asarray(sendbuf).reshape(recv[i].shape)
            else:
                recv[i] = (
                    landing[i * nbytes : (i + 1) * nbytes]
                    .view(recv.dtype)
                    .reshape(recv[i].shape)
                )
        # Unpack cost: landing zone -> user buffer (MPI's collectives
        # receive in place and skip this — part of why they win).
        yield _costs.cost(self.gasnet.ctx, "copy", nbytes * n)
        yield from self._finish_exchange_steps(seq)
        self._arena_release(marker)

    def alltoall(self, sendbuf, recvbuf) -> None:
        """Naive all-to-all: put chunk j to peer j in ascending rank order.

        Every image starts at peer 0 and walks up, so low-index peers
        absorb an incast burst; each chunk also costs a completion signal.
        This is the hand-rolled collective whose cost dominates
        CAF-GASNet's FFT (Figure 8).
        """
        self.gasnet.ctx.proc.run_script(self._alltoall_steps(sendbuf, recvbuf))

    @_collective
    def _alltoall_steps(self, sendbuf, recvbuf):
        send = np.asarray(sendbuf)
        recv = np.asarray(recvbuf)
        n = self.size
        if send.shape[0] != n or recv.shape[0] != n:
            raise GasnetError(f"alltoall buffers need leading dimension {n}")
        chunk0 = np.ascontiguousarray(send[0]).reshape(-1).view(np.uint8)
        nbytes = chunk0.nbytes
        marker = self._arena_top
        land = self._arena_alloc(nbytes * n)
        seq = yield from self._exchange_steps(
            lambda peer: (
                np.ascontiguousarray(send[peer]).reshape(-1).view(np.uint8),
                land + self.my_index * nbytes,
            ),
        )
        recv[self.my_index] = send[self.my_index]
        landing = self._local_arena(land, nbytes * n)
        for i in range(n):
            if i != self.my_index:
                recv[i] = (
                    landing[i * nbytes : (i + 1) * nbytes]
                    .view(recv.dtype)
                    .reshape(recv[i].shape)
                )
        # Unpack cost (see allgather): landing zone -> user buffer.
        yield _costs.cost(self.gasnet.ctx, "copy", nbytes * n)
        yield from self._finish_exchange_steps(seq)
        self._arena_release(marker)

    def _exchange_steps(self, chunk_for_peer):
        """Common body of allgather/alltoall: put + signal every peer in
        naive ascending order, then wait for every peer's signal. Returns
        the collective's sequence number for :meth:`_finish_exchange_steps`."""
        seq = self._next_seq()
        n = self.size
        mode = self.gasnet.ctx.spec.gasnet_coll_signal
        if mode == "put":
            marker_val = seq + 1
            for j in range(n):
                if j == self.my_index:
                    continue
                data, delta = chunk_for_peer(j)
                yield from self.gasnet._put_nb_steps(
                    self.members[j], [(self.peer_arena_bases[j] + delta, data.nbytes)], data
                )
                # Pair-FIFO delivery makes the flag arrive after the data.
                yield from self._put_flag_steps(j, marker_val, self.peer_flag_bases)
            if n > 1:
                yield from self._wait_flags_steps(marker_val, self.flags_base)
        elif mode == "am":
            handles = []
            for j in range(n):
                if j == self.my_index:
                    continue
                data, delta = chunk_for_peer(j)
                handles.append(
                    (
                        yield from self.gasnet._put_nb_steps(
                            self.members[j],
                            [(self.peer_arena_bases[j] + delta, data.nbytes)], data,
                        )
                    )
                )
            yield from self.gasnet._wait_syncnb_all_steps(handles)
            for j in range(n):
                if j != self.my_index:
                    yield from self._signal_steps(j, seq)
            if n > 1:
                yield from self._wait_signals_steps(seq, n - 1)
        else:
            raise GasnetError(f"unknown gasnet_coll_signal mode {mode!r}")
        return seq

    def _finish_exchange_steps(self, seq: int):
        """Drain round: nobody's landing zone may be overwritten (by a
        subsequent collective reusing the arena) until everyone has copied
        theirs out."""
        n = self.size
        if n == 1:
            return
        mode = self.gasnet.ctx.spec.gasnet_coll_signal
        if mode == "put":
            marker_val = seq + 1
            for j in range(n):
                if j != self.my_index:
                    yield from self._put_flag_steps(j, marker_val, self.peer_drain_bases)
            yield from self._wait_flags_steps(marker_val, self.drain_base)
        else:
            for j in range(n):
                if j != self.my_index:
                    yield from self._signal_steps(j, seq, round_no=1)
            yield from self._wait_signals_steps(seq, n - 1, round_no=1)
