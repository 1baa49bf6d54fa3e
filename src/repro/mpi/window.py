"""MPI-3 RMA: windows, one-sided operations, passive-target synchronization.

Implements the MPI-3 additions the paper's CAF-MPI runtime relies on
(§2.2): ``MPI_WIN_ALLOCATE``, passive-target ``LOCK_ALL`` epochs,
``PUT``/``GET``/``ACCUMULATE``, request-generating ``RPUT``/``RGET``,
one-sided atomics (``FETCH_AND_OP``, ``COMPARE_AND_SWAP``), and the
completion routines ``FLUSH`` / ``FLUSH_ALL`` / ``FLUSH_LOCAL``.

Behavioural fidelity:

* **Linear FLUSH_ALL** — MPICH derivatives flush every rank of the window's
  group; with any epoch activity the call costs
  ``group_size * mpi_flush_all_per_target`` (the paper's Figure 4 analysis
  of RandomAccess `event_notify` time). With no activity it costs only
  ``mpi_flush_all_idle``, which is why the paper's NOTIFY *microbenchmark*
  stays flat while full RandomAccess does not.
* **Send/recv-backed RMA** (``spec.mpi_rma_over_sendrecv``) — Cray MPI at
  the time implemented RMA over two-sided internals; every one-sided op
  pays an extra origin overhead and a target-side software delay (the
  paper's Figure 5 analysis). The library still progresses these without
  user intervention (Cray MPI has an internal agent), just more slowly.
* Hardware-RMA mode completes PUT/GET purely in the fabric — no target CPU
  involvement — which is what makes the CAF-MPI design deadlock-free where
  AM-based coarray writes are not (Figure 2).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import NO_OP, REPLACE, Op
from repro.mpi.request import Request
from repro.sim import costs as _costs
from repro.sim.sync import SimEvent
from repro.util.buffers import flatten, snapshot
from repro.util.errors import MpiError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.comm import Comm

_RMA_ENVELOPE_BYTES = 48
_win_ids = itertools.count()


class _PendingPut:
    """A rendezvous PUT whose payload is still a view of the user buffer.

    ``arr`` is swapped for a private copy if the origin claims buffer-reuse
    rights (flush_local) before delivery reads it; identity-hashed so sets
    work despite holding an ndarray.
    """

    __slots__ = ("target", "arr")

    def __init__(self, target: int, arr: np.ndarray):
        self.target = target
        self.arr = arr


class _WindowState:
    """Shared (library-side) state of one window."""

    def __init__(
        self,
        group: tuple[int, ...],
        buffers: list[np.ndarray | None],
        win_id: int,
        *,
        memory_model: str = "unified",
        dynamic: bool = False,
        shared: bool = False,
    ):
        self.group = group  # comm rank -> world rank
        self.buffers = buffers  # per comm rank, flat arrays of the window dtype
        self.win_id = win_id
        self.memory_model = memory_model  # "unified" (MPI-3) or "separate" (MPI-2)
        self.dynamic = dynamic  # MPI_WIN_CREATE_DYNAMIC: memory attached later
        self.shared = shared  # MPI_WIN_ALLOCATE_SHARED
        n = len(group)
        # pending[o][t]: ops from origin o not yet complete at target t.
        self.pending = [[0] * n for _ in range(n)]
        # inflight[o]: total pending ops from origin o across all targets.
        # Lets FLUSH_ALL test one integer instead of scanning pending[o].
        self.inflight = [0] * n
        self.flush_waiters: dict[tuple[int, int], list[SimEvent]] = {}
        # Origin-level waiters fired when inflight[o] drains to zero.
        self.quiet_waiters: dict[int, list[SimEvent]] = {}
        # Origins with epoch activity since their last FLUSH_ALL.
        self.dirty: list[bool] = [False] * n
        self.lock_all_held: list[bool] = [False] * n
        # Per-target exclusive/shared lock state: (mode, holders, wait queue).
        self.locks: list[dict] = [
            {"mode": None, "holders": set(), "queue": []} for _ in range(n)
        ]
        # Rendezvous PUT payloads still riding as live views of the origin's
        # user buffer (zero-copy): flush_local must buffer these before the
        # user regains reuse rights. Cleared at delivery.
        self.unread_puts: list[set["_PendingPut"]] = [set() for _ in range(n)]
        # Dynamic windows: per rank, base displacement -> attached region.
        self.regions: list[dict[int, np.ndarray]] = [{} for _ in range(n)]
        self.next_base: list[int] = [0] * n
        # Separate model: per rank, private copy + mask of RMA-updated slots.
        self.private_copies: list[np.ndarray | None] = [None] * n
        self.rma_dirty_mask: list[np.ndarray | None] = [None] * n
        self.freed = False

    # -- target memory resolution (standard vs dynamic windows) -----------

    def resolve(self, rank: int, offset: int, count: int) -> tuple[np.ndarray, int]:
        """Locate the target array and local offset for an access."""
        if self.dynamic:
            for base, region in self.regions[rank].items():
                if base <= offset and offset + count <= base + region.size:
                    return region, offset - base
            raise MpiError(
                f"dynamic-window access [{offset}, {offset + count}) hits no "
                f"attached region on rank {rank}"
            )
        buf = self.buffers[rank]
        if buf is None:
            raise MpiError(f"rank {rank} has no window memory")
        if offset < 0 or offset + count > buf.size:
            raise MpiError(
                f"RMA access [{offset}, {offset + count}) outside target "
                f"window of {buf.size} elements"
            )
        return buf, offset

    def write_target(self, rank: int, offset: int, data: np.ndarray) -> None:
        buf, off = self.resolve(rank, offset, data.size)
        buf[off : off + data.size] = data
        mask = self.rma_dirty_mask[rank]
        if mask is not None and not self.dynamic:
            mask[off : off + data.size] = True

    def read_target(self, rank: int, offset: int, count: int) -> np.ndarray:
        buf, off = self.resolve(rank, offset, count)
        return buf[off : off + count].copy()

    def apply_target(self, rank: int, offset: int, data: np.ndarray, op: Op) -> np.ndarray:
        """Atomically combine; returns the previous contents."""
        buf, off = self.resolve(rank, offset, data.size)
        sl = slice(off, off + data.size)
        old = buf[sl].copy()
        buf[sl] = op(buf[sl], data)
        mask = self.rma_dirty_mask[rank]
        if mask is not None and not self.dynamic:
            mask[sl] = True
        return old


class Window:
    """One rank's handle on an RMA window (what ``MPI_WIN_ALLOCATE`` returns)."""

    def __init__(self, state: _WindowState, comm: "Comm"):
        self.state = state
        self.comm = comm
        self.ctx = comm.ctx
        self.rank = comm.rank
        # The sanitizer and metrics registry are fixed at cluster
        # construction, before any rank runs; cache the handles so per-op
        # guards are one attribute load.
        self._san = comm.ctx.sanitizer
        self._obs = comm.ctx.metrics

    # -- local access ------------------------------------------------------

    @property
    def local(self) -> np.ndarray:
        """This rank's window segment.

        Under the MPI-3 **unified** memory model, plain loads/stores to
        this view are coherent with RMA (§2.2). Under the MPI-2-style
        **separate** model this is the *private* copy: RMA lands in the
        public copy and only becomes visible here after :meth:`sync`.
        """
        if self.state.dynamic:
            raise MpiError("dynamic windows have no implicit local segment; "
                           "use the array passed to attach()")
        san = self._san
        if self.state.memory_model == "separate":
            private = self.state.private_copies[self.rank]
            assert private is not None
            if san is not None:
                mask = self.state.rma_dirty_mask[self.rank]
                if mask is not None and mask.any():
                    san.win_sync_violation(
                        self._world(self.rank),
                        self.win_id,
                        [(0, private.nbytes)],
                    )
            return private
        buf = self.state.buffers[self.rank]
        assert buf is not None
        if san is not None and not san.is_exempt_window(self.win_id):
            from repro.sanitizer.view import tracked_view

            world = self._world(self.rank)
            return tracked_view(buf, san, ("win", self.win_id, world), world)
        return buf

    def sync(self) -> None:
        """MPI_WIN_SYNC: reconcile the private and public copies (separate
        memory model). RMA updates since the last sync become visible in
        ``local``; local stores become visible to RMA readers. A no-op
        under the unified model (§2.2's point: coherent hardware makes the
        separate model's bookkeeping unnecessary)."""
        state = self.state
        if state.memory_model != "separate":
            return
        public = state.buffers[self.rank]
        private = state.private_copies[self.rank]
        mask = state.rma_dirty_mask[self.rank]
        assert public is not None and private is not None and mask is not None
        _costs.charge(self.ctx, "copy", public.nbytes)
        private[mask] = public[mask]
        mask[:] = False
        public[...] = private

    def shared_query(self, rank: int) -> np.ndarray:
        """MPI_WIN_SHARED_QUERY: direct load/store access to another
        rank's segment of a shared window (same shared-memory node only)."""
        if not self.state.shared:
            raise MpiError("shared_query on a non-shared window")
        spec = self.ctx.spec
        me_world = self._world(self.rank)
        other_world = self._world(rank)
        if spec.node_of(me_world) != spec.node_of(other_world):
            raise MpiError(
                f"rank {rank} is not on this rank's shared-memory node"
            )
        buf = self.state.buffers[rank]
        assert buf is not None
        return buf

    # -- dynamic windows (§2.2) -------------------------------------------

    def attach(self, nelems: int) -> int:
        """MPI_WIN_ATTACH: expose ``nelems`` elements; returns the base
        displacement remote ranks use to address this region."""
        if not self.state.dynamic:
            raise MpiError("attach() on a non-dynamic window")
        if nelems <= 0:
            raise MpiError(f"attach needs a positive size, got {nelems}")
        state = self.state
        base = state.next_base[self.rank]
        # Leave a guard gap so out-of-region accesses fault.
        state.next_base[self.rank] = base + nelems + 64
        region = np.zeros(nelems, self._dtype())
        state.regions[self.rank][base] = region
        self.ctx.memory.alloc(
            self.ctx.rank, f"mpi/win{self.win_id}", region.nbytes
        )
        return base

    def detach(self, base: int) -> None:
        """MPI_WIN_DETACH."""
        if not self.state.dynamic:
            raise MpiError("detach() on a non-dynamic window")
        region = self.state.regions[self.rank].pop(base, None)
        if region is None:
            raise MpiError(f"no region attached at displacement {base}")
        self.ctx.memory.free(
            self.ctx.rank, f"mpi/win{self.win_id}", region.nbytes
        )

    def region(self, base: int) -> np.ndarray:
        """The locally-attached region at ``base`` (dynamic windows)."""
        if not self.state.dynamic:
            raise MpiError("region() on a non-dynamic window")
        try:
            return self.state.regions[self.rank][base]
        except KeyError:
            raise MpiError(f"no region attached at displacement {base}") from None

    def _dtype(self) -> np.dtype:
        if self.state.dynamic:
            return np.dtype(getattr(self.state, "dtype", np.uint8))
        buf = self.state.buffers[self.rank]
        assert buf is not None
        return buf.dtype

    @property
    def group_size(self) -> int:
        return len(self.state.group)

    @property
    def win_id(self) -> int:
        return self.state.win_id

    # -- helpers --------------------------------------------------------------

    def _check_target(self, target: int, offset: int, count: int) -> None:
        if self.state.freed:
            raise MpiError("window has been freed")
        if not 0 <= target < self.group_size:
            raise MpiError(f"target {target} out of range [0, {self.group_size})")
        self.comm.check_alive(target)  # ULFM: RMA to a dead rank fails eagerly
        if count > 0:
            self.state.resolve(target, offset, count)  # bounds / region check

    def _op_started(self, target: int) -> None:
        state = self.state
        rank = self.rank
        state.pending[rank][target] += 1
        state.inflight[rank] += 1
        state.dirty[rank] = True

    def _op_done_at_target(self, origin: int, target: int) -> None:
        state = self.state
        pending = state.pending[origin]
        pending[target] -= 1
        state.inflight[origin] -= 1
        if pending[target] == 0 and state.flush_waiters:
            for ev in state.flush_waiters.pop((origin, target), []):
                ev.fire()
        if state.inflight[origin] == 0 and state.quiet_waiters:
            for ev in state.quiet_waiters.pop(origin, []):
                ev.fire()

    def _world(self, comm_rank: int) -> int:
        return self.state.group[comm_rank]

    # -- sanitizer plumbing (no-ops unless the cluster sanitizes) ----------

    def _san_access(
        self,
        target: int,
        elem_ranges,
        op: str,
        *,
        is_write: bool,
        atomic: bool = False,
    ):
        """Record one RMA access with the sanitizer; returns the shadow
        record (released later at this op's synchronization point) or None.

        Also checks the passive-target epoch contract: an op needs
        lock_all, a lock on the target, or an open fence on the window.
        """
        san = self._san
        if san is None:
            return None
        state = self.state
        in_epoch = (
            state.lock_all_held[self.rank]
            or self.rank in state.locks[target]["holders"]
            or self.win_id in san.fence_windows
        )
        target_world = self._world(target)
        if not in_epoch:
            san.epoch_violation(self._world(self.rank), op, self.win_id, target_world)
        itemsize = self._dtype().itemsize
        ranges = [(lo * itemsize, hi * itemsize) for lo, hi in elem_ranges]
        return san.record_remote(
            self._world(self.rank),
            ("win", self.win_id, target_world),
            ranges,
            op,
            is_write=is_write,
            atomic=atomic,
        )

    def _san_release_on(self, req: Request, rec) -> None:
        """Release ``rec`` when ``req`` completes (round-trip ops, whose
        request completion *is* remote completion)."""
        if rec is None:
            return
        san = self._san
        req._event.subscribe(lambda: san.release_records((rec,)))

    # -- one-sided data movement ------------------------------------------------

    def _one_way(self, target: int, nbytes: int, apply, req: Request | None = None) -> None:
        """Ship a one-way op (PUT/ACCUMULATE) of ``nbytes`` payload.

        ``apply()`` commits it at delivery — after the target-side software
        delay when RMA rides send/recv (Fig. 5) — but the origin only
        *learns* of remote completion an ack later, which is when the op
        stops being pending and ``req`` (if any) completes.
        """
        ctx = self.ctx
        origin = self.rank
        src, dst = self._world(origin), self._world(target)

        def on_delivered() -> None:
            def commit() -> None:
                def acked() -> None:
                    self._op_done_at_target(origin, target)
                    if req is not None:
                        req._complete()

                apply()
                _costs.charge_in(ctx, "ack", acked, a=src, b=dst)

            _costs.charge_in(ctx, "mpi.target_delay", commit)

        ctx.fabric.send(
            src, dst, nbytes + _RMA_ENVELOPE_BYTES, on_delivered, reliable=True
        )

    def _round_trip(
        self, target: int, request_nbytes: int, response_nbytes: int,
        serve, dest: np.ndarray, req: Request,
    ) -> None:
        """Ship a round-trip op (GET/FETCH_AND_OP/CAS).

        ``serve()`` runs at the target (after the same target-side delay as
        one-way ops) and its result rides the response into ``dest`` at the
        origin, where request completion *is* remote completion.
        """
        ctx = self.ctx
        fabric = ctx.fabric
        origin = self.rank
        src, dst = self._world(origin), self._world(target)

        def at_target() -> None:
            def respond() -> None:
                result = serve()

                def at_origin() -> None:
                    dest[...] = result
                    self._op_done_at_target(origin, target)
                    req._complete()

                fabric.send(dst, src, response_nbytes, at_origin, reliable=True)

            _costs.charge_in(ctx, "mpi.target_delay", respond)

        fabric.send(src, dst, request_nbytes, at_target, reliable=True)

    def put(self, data, target: int, offset: int = 0) -> None:
        """MPI_PUT: one-sided write; remote completion requires a flush."""
        self.rput(data, target, offset)

    def rput(self, data, target: int, offset: int = 0) -> Request:
        """MPI_RPUT: like PUT, returning a request for *local* completion."""
        return self.ctx.proc.run_script(self._rput_steps(data, target, offset))

    def _rput_steps(self, data, target: int, offset: int):
        arr, private = flatten(data, self._dtype())
        self._check_target(target, offset, arr.size)
        yield _costs.cost(self.ctx, "mpi.rput", arr.nbytes)
        self._op_started(target)
        self._san_access(
            target, [(offset, offset + arr.size)], "rput", is_write=True
        )
        eager = arr.nbytes <= self.ctx.spec.mpi_eager_threshold
        # Eager PUTs complete locally on return, so the library must buffer
        # the data now; rendezvous PUTs may read the user buffer at delivery
        # time because the contract forbids reuse before local completion —
        # and flush_local (which grants reuse early) buffers any still-unread
        # payload via the unread_puts registry.
        payload = arr.copy() if (eager and not private) else arr
        req = Request(f"rput(win={self.win_id},target={target})", self.ctx.proc)
        unread = self.state.unread_puts[self.rank]
        pp = None
        if not eager and not private:
            pp = _PendingPut(target, payload)
            unread.add(pp)

        def commit() -> None:
            if pp is not None:
                data = pp.arr
                unread.discard(pp)
            else:
                data = payload
            self.state.write_target(target, offset, data)

        self._one_way(target, payload.nbytes, commit, req)
        if eager:
            # Small transfers are buffered by the library: locally complete now.
            req._complete()
        return req

    def get(self, dest, target: int, offset: int = 0) -> None:
        """MPI_GET into ``dest``; completion requires a flush (use rget+wait
        for request-based completion)."""
        self.rget(dest, target, offset)

    def rget(self, dest, target: int, offset: int = 0) -> Request:
        """MPI_RGET: request completion == local *and* remote completion."""
        return self.ctx.proc.run_script(self._rget_steps(dest, target, offset))

    def _rget_steps(self, dest, target: int, offset: int):
        dest_arr = np.asarray(dest)
        if dest_arr.dtype != self._dtype():
            raise MpiError(
                f"rget destination dtype {dest_arr.dtype} != window dtype {self._dtype()}"
            )
        count = dest_arr.size
        self._check_target(target, offset, count)
        nbytes = count * self._dtype().itemsize
        yield _costs.cost(self.ctx, "mpi.rget", nbytes)
        self._op_started(target)
        rec = self._san_access(
            target, [(offset, offset + count)], "rget", is_write=False
        )
        req = Request(f"rget(win={self.win_id},target={target})", self.ctx.proc)
        self._san_release_on(req, rec)
        self._round_trip(
            target, _RMA_ENVELOPE_BYTES, nbytes,
            lambda: self.state.read_target(target, offset, count),
            dest_arr.reshape(-1), req,
        )
        return req

    # -- one-sided atomics ---------------------------------------------------------

    def accumulate(self, data, target: int, offset: int = 0, op: Op = REPLACE) -> None:
        """MPI_ACCUMULATE: elementwise atomic update of target memory."""
        self.raccumulate(data, target, offset, op)

    def raccumulate(self, data, target: int, offset: int = 0, op: Op = REPLACE) -> Request:
        return self.ctx.proc.run_script(
            self._raccumulate_steps(data, target, offset, op)
        )

    def _raccumulate_steps(self, data, target: int, offset: int, op: Op):
        # Atomics always snapshot: the combine runs at the target later and
        # must see the call-time value regardless of completion mode.
        snap = snapshot(data, self._dtype())
        self._check_target(target, offset, snap.size)
        yield _costs.cost(self.ctx, "mpi.accumulate", snap.nbytes)
        self._op_started(target)
        self._san_access(
            target,
            [(offset, offset + snap.size)],
            "raccumulate",
            is_write=True,
            atomic=True,
        )
        req = Request(f"raccumulate(win={self.win_id},target={target})", self.ctx.proc)
        self._one_way(
            target, snap.nbytes,
            lambda: self.state.apply_target(target, offset, snap, op), req,
        )
        if snap.nbytes <= self.ctx.spec.mpi_eager_threshold:
            req._complete()
        return req

    def get_accumulate(self, data, result, target: int, offset: int = 0, op: Op = NO_OP):
        """MPI_GET_ACCUMULATE (blocking wait on the internal request)."""
        return self.ctx.proc.run_script(
            self._fetch_op_steps(data, result, target, offset, op)
        )

    def fetch_and_op(self, value, result, target: int, offset: int = 0, op: Op = NO_OP):
        """MPI_FETCH_AND_OP: single-element fast path of GET_ACCUMULATE."""
        return self.ctx.proc.run_script(
            self._fetch_op_steps(value, result, target, offset, op)
        )

    def _fetch_op_steps(self, data, result, target: int, offset: int, op: Op):
        obs = self._obs
        t0 = self.ctx.engine.now if obs is not None else 0.0
        snap = snapshot(data, self._dtype())
        result_arr = np.asarray(result).reshape(-1)
        self._check_target(target, offset, snap.size)
        yield _costs.cost(self.ctx, "mpi.atomic_origin")
        self._op_started(target)
        rec = self._san_access(
            target,
            [(offset, offset + snap.size)],
            "fetch_and_op",
            is_write=True,
            atomic=True,
        )
        req = Request(f"fetch_op(win={self.win_id},target={target})", self.ctx.proc)
        self._san_release_on(req, rec)
        self._round_trip(
            target, snap.nbytes + _RMA_ENVELOPE_BYTES, snap.nbytes,
            lambda: self.state.apply_target(target, offset, snap, op),
            result_arr, req,
        )
        out = yield from req._wait_steps()
        if obs is not None:
            obs.record(
                self.ctx.rank, "mpi.fetch_op",
                np.asarray(result).nbytes, self.ctx.engine.now - t0,
            )
        return out

    def compare_and_swap(self, compare, value, result, target: int, offset: int = 0):
        """MPI_COMPARE_AND_SWAP on a single element."""
        return self.ctx.proc.run_script(
            self._compare_and_swap_steps(compare, value, result, target, offset)
        )

    def _compare_and_swap_steps(self, compare, value, result, target: int, offset: int):
        dtype = self._dtype()
        cmp_val = np.asarray(compare, dtype=dtype).reshape(())
        new_val = np.asarray(value, dtype=dtype).reshape(())
        result_arr = np.asarray(result).reshape(-1)
        self._check_target(target, offset, 1)
        obs = self._obs
        t0 = self.ctx.engine.now if obs is not None else 0.0
        yield _costs.cost(self.ctx, "mpi.atomic_origin")
        self._op_started(target)
        rec = self._san_access(
            target, [(offset, offset + 1)], "compare_and_swap",
            is_write=True, atomic=True,
        )
        req = Request(f"cas(win={self.win_id},target={target})", self.ctx.proc)
        self._san_release_on(req, rec)

        def swap():
            tbuf, toff = self.state.resolve(target, offset, 1)
            old = tbuf[toff].copy()
            if old == cmp_val:
                tbuf[toff] = new_val
            return old

        self._round_trip(
            target, 2 * dtype.itemsize + _RMA_ENVELOPE_BYTES, dtype.itemsize,
            swap, result_arr[:1], req,
        )
        yield from req._wait_steps()
        if obs is not None:
            obs.record(
                self.ctx.rank, "mpi.cas", dtype.itemsize, self.ctx.engine.now - t0
            )
        return result_arr[0]

    # -- passive-target synchronization ------------------------------------------

    def lock_all(self) -> None:
        """MPI_WIN_LOCK_ALL (shared): open a passive epoch to every target."""
        self.ctx.proc.run_script(self._lock_all_steps())

    def _lock_all_steps(self):
        if self.state.lock_all_held[self.rank]:
            raise MpiError("lock_all while already holding lock_all")
        yield _costs.cost(self.ctx, "mpi.flush_overhead")
        self.state.lock_all_held[self.rank] = True

    def unlock_all(self) -> None:
        """MPI_WIN_UNLOCK_ALL: completes all outstanding ops, closes the epoch."""
        self.ctx.proc.run_script(self._unlock_all_steps())

    def _unlock_all_steps(self):
        if not self.state.lock_all_held[self.rank]:
            raise MpiError("unlock_all without lock_all")
        yield from self._flush_all_steps()
        self.state.lock_all_held[self.rank] = False

    def put_runs(self, data, target: int, runs: list[tuple[int, int]]) -> None:
        """PUT with a derived datatype: scatter ``data`` into the target's
        window at the given (offset, length) runs, as one network message
        (how MPI_Type_vector + MPI_PUT moves strided sections)."""
        self.ctx.proc.run_script(self._put_runs_steps(data, target, runs))

    def _put_runs_steps(self, data, target: int, runs: list[tuple[int, int]]):
        arr, private = flatten(data, self._dtype())
        total = sum(length for _off, length in runs)
        if arr.size != total:
            raise MpiError(f"put_runs data has {arr.size} elements, runs cover {total}")
        for off, length in runs:
            self._check_target(target, int(off), int(length))
        # Origin packs the section, then one wire message carries it.
        yield _costs.cost(self.ctx, "mpi.put_runs", arr.nbytes)
        self._op_started(target)
        self._san_access(
            target,
            [(int(off), int(off) + int(length)) for off, length in runs],
            "put_runs",
            is_write=True,
        )
        snap = arr if private else arr.copy()

        def commit() -> None:
            cursor = 0
            for off, length in runs:
                self.state.write_target(
                    target, int(off), snap[cursor : cursor + length]
                )
                cursor += length

        self._one_way(target, snap.nbytes, commit)

    def get_runs(self, dest, target: int, runs: list[tuple[int, int]]) -> Request:
        """GET with a derived datatype: gather the target's runs into
        ``dest`` as one response message; returns a request (like RGET)."""
        return self.ctx.proc.run_script(self._get_runs_steps(dest, target, runs))

    def _get_runs_steps(self, dest, target: int, runs: list[tuple[int, int]]):
        dest_arr = np.asarray(dest).reshape(-1)
        total = sum(length for _off, length in runs)
        if dest_arr.size != total:
            raise MpiError(f"get_runs buffer has {dest_arr.size} elements, runs cover {total}")
        for off, length in runs:
            self._check_target(target, int(off), int(length))
        nbytes = total * self._dtype().itemsize
        yield _costs.cost(self.ctx, "mpi.get_runs", nbytes)
        self._op_started(target)
        rec = self._san_access(
            target,
            [(int(off), int(off) + int(length)) for off, length in runs],
            "get_runs",
            is_write=False,
        )
        req = Request(f"get_runs(win={self.win_id},target={target})", self.ctx.proc)
        self._san_release_on(req, rec)

        def gather() -> np.ndarray:
            parts = [
                self.state.read_target(target, int(off), int(length))
                for off, length in runs
            ]
            return np.concatenate(parts) if parts else np.empty(0, self._dtype())

        self._round_trip(target, _RMA_ENVELOPE_BYTES, nbytes, gather, dest_arr, req)
        return req

    def lock(self, target: int, *, exclusive: bool = False) -> None:
        """MPI_WIN_LOCK: open a passive epoch to one target.

        Exclusive locks serialize against all other lock holders; shared
        locks coexist with other shared holders. Blocks while conflicting
        locks are held (the blocking possibility §3.3 calls out).
        """
        self.ctx.proc.run_script(self._lock_steps(target, exclusive))

    def _lock_steps(self, target: int, exclusive: bool):
        self._check_target(target, 0, 0)
        yield _costs.cost(self.ctx, "mpi.flush_overhead")
        lock = self.state.locks[target]
        me = (self.rank, "exclusive" if exclusive else "shared")

        def admissible() -> bool:
            if not lock["holders"]:
                return True
            return not exclusive and lock["mode"] == "shared"

        while not (admissible() and (not lock["queue"] or lock["queue"][0] is me)):
            if me not in lock["queue"]:
                lock["queue"].append(me)
            ev = SimEvent(f"lock(win={self.win_id},t={target})")
            lock.setdefault("waiters", []).append(ev)
            yield from ev._wait_steps(self.ctx.proc)
        if me in lock["queue"]:
            lock["queue"].remove(me)
        lock["mode"] = "exclusive" if exclusive else "shared"
        lock["holders"].add(self.rank)

    def unlock(self, target: int) -> None:
        """MPI_WIN_UNLOCK: completes outstanding ops, releases the lock."""
        self.ctx.proc.run_script(self._unlock_steps(target))

    def _unlock_steps(self, target: int):
        lock = self.state.locks[target]
        if self.rank not in lock["holders"]:
            raise MpiError(f"unlock(target={target}) without holding the lock")
        yield from self._flush_steps(target)
        lock["holders"].discard(self.rank)
        if not lock["holders"]:
            lock["mode"] = None
        for ev in lock.pop("waiters", []):
            ev.fire()

    def rflush(self, target: int) -> Request:
        """MPI_WIN_RFLUSH — the paper's §5 proposal, implemented.

        Starts remote-completion tracking for outstanding ops to ``target``
        and returns a request; constant software cost regardless of group
        size, and the latency can overlap computation. Not part of MPI-3 —
        this is the extension the paper asks the Forum to standardize.
        """
        self._check_target(target, 0, 0)
        _costs.charge(self.ctx, "mpi.rflush")
        req = Request(f"rflush(win={self.win_id},t={target})", self.ctx.proc)
        san = self._san
        if san is not None:
            open_recs = san.open_window_records(
                self.win_id, self._world(self.rank), self._world(target)
            )
            if open_recs:
                req._event.subscribe(lambda: san.release_records(open_recs))
        self._when_quiet([target], req)
        return req

    def rflush_all(self) -> Request:
        """MPI_WIN_RFLUSH_ALL: request-based remote completion to every
        target, at constant (not linear-in-P) software cost."""
        _costs.charge(self.ctx, "mpi.rflush_all")
        self.state.dirty[self.rank] = False
        req = Request(f"rflush_all(win={self.win_id})", self.ctx.proc)
        san = self._san
        if san is not None:
            open_recs = san.open_window_records(self.win_id, self._world(self.rank))
            if open_recs:
                req._event.subscribe(lambda: san.release_records(open_recs))
        self._when_quiet(range(self.group_size), req)
        return req

    def _when_quiet(self, targets, req: Request) -> None:
        """Complete ``req`` once pending ops to all ``targets`` are done."""
        state = self.state
        origin = self.rank
        if state.inflight[origin] == 0:
            req._complete()
            return
        # Per-target tracking, not the shared inflight counter: the request
        # must complete when the ops pending *at call time* drain, and
        # inflight also counts ops the origin issues after rflush returns —
        # including ops to targets that had nothing pending here.
        remaining = [t for t in list(targets) if state.pending[origin][t] > 0]
        if not remaining:
            req._complete()
            return
        outstanding = [len(remaining)]

        def one_done() -> None:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                req._complete()

        for t in remaining:
            ev = SimEvent(f"rflush-track(o={origin},t={t})")
            state.flush_waiters.setdefault((origin, t), []).append(ev)
            ev.subscribe(one_done)

    def flush(self, target: int) -> None:
        """MPI_WIN_FLUSH: wait for remote completion of my ops at ``target``."""
        self.ctx.proc.run_script(self._flush_steps(target))

    def _flush_steps(self, target: int):
        self._check_target(target, 0, 0)
        obs = self._obs
        t0 = self.ctx.engine.now if obs is not None else 0.0
        yield _costs.cost(self.ctx, "mpi.flush_overhead")
        state = self.state
        origin = self.rank
        while state.pending[origin][target] > 0:
            ev = SimEvent(f"flush(win={self.win_id},o={origin},t={target})")
            state.flush_waiters.setdefault((origin, target), []).append(ev)
            yield from ev._wait_steps(self.ctx.proc)
        if obs is not None:
            obs.record(self.ctx.rank, "mpi.flush", 0, self.ctx.engine.now - t0)
        san = self._san
        if san is not None:
            san.release_window(
                self.win_id, self._world(self.rank), self._world(target)
            )

    def flush_all(self) -> None:
        """MPI_WIN_FLUSH_ALL — linear in group size when the epoch is active.

        MPICH derivatives (MVAPICH, Cray MPI) flush every rank in the window
        group; the paper identifies this as the dominant cost of CAF-MPI's
        ``event_notify`` in RandomAccess.
        """
        self.ctx.proc.run_script(self._flush_all_steps())

    def _flush_all_steps(self):
        state = self.state
        origin = self.rank
        obs = self._obs
        t0 = self.ctx.engine.now if obs is not None else 0.0
        dirty = bool(state.dirty[origin])
        if dirty:
            yield _costs.cost(self.ctx, "mpi.flush_all.walk", a=self.group_size)
            state.dirty[origin] = False
        else:
            yield _costs.cost(self.ctx, "mpi.flush_all.skip")
        # The modeled cost above is linear in group size (MPICH behaviour);
        # the wall-clock wait is one counter check — inflight[origin] hits
        # zero exactly when the last pending op to any target completes, so
        # this resumes at the same virtual time the per-target loop did.
        while state.inflight[origin] > 0:
            ev = SimEvent(f"flush_all(win={self.win_id},o={origin})")
            state.quiet_waiters.setdefault(origin, []).append(ev)
            yield from ev._wait_steps(self.ctx.proc)
        if obs is not None:
            # Active epochs and the idle walk are distinct cost-table rows
            # (mpi.flush_all.walk vs .skip) — mirror the split here so the
            # linear-in-P active cost is not averaged away under the flat
            # idle calls (§3.4, Fig. 4).
            kind = "mpi.flush_all" if dirty else "mpi.flush_all.idle"
            obs.record(self.ctx.rank, kind, 0, self.ctx.engine.now - t0)
        san = self._san
        if san is not None:
            san.release_window(self.win_id, self._world(self.rank))

    def flush_local(self, target: int) -> None:
        """MPI_WIN_FLUSH_LOCAL: origin buffers reusable (ops may still be in
        flight to the target). Rendezvous PUT payloads ride as live views of
        the user buffer, so any not yet read by delivery are buffered into
        private copies here — the library eats the memcpy (wall-clock only;
        the modeled cost stays the flat flush overhead)."""
        self._check_target(target, 0, 0)
        self.ctx.proc.run_script(self._flush_local_steps(target))

    def flush_local_all(self) -> None:
        self.ctx.proc.run_script(self._flush_local_steps(None))

    def _flush_local_steps(self, target: int | None):
        yield _costs.cost(self.ctx, "mpi.flush_overhead")
        self._buffer_unread_puts(target)

    def _buffer_unread_puts(self, target: int | None) -> None:
        """Privatize still-in-flight PUT payloads viewing the user buffer.

        The user buffer cannot have changed since the put (reuse was illegal
        until now), so copying at this instant preserves the put-time value.
        """
        pend = self.state.unread_puts[self.rank]
        if not pend:
            return
        for pp in [p for p in pend if target is None or p.target == target]:
            pp.arr = pp.arr.copy()
            pend.discard(pp)

    def fence(self) -> None:
        """MPI_WIN_FENCE (active target): flush + barrier."""
        san = self._san
        if san is not None:
            # The window is fence-synchronized from here on: accesses in
            # fence epochs are legal without passive-target locks.
            san.fence_windows.add(self.win_id)
        self.ctx.proc.run_script(self._flush_all_barrier_steps())

    def _flush_all_barrier_steps(self):
        yield from self._flush_all_steps()
        yield from self.comm._barrier_steps()

    def free(self) -> None:
        """MPI_WIN_FREE (collective): release the modeled window memory."""
        self.ctx.proc.run_script(self._free_steps())

    def _free_steps(self):
        yield from self._flush_all_barrier_steps()
        if self.state.dynamic:
            for base in list(self.state.regions[self.rank]):
                self.detach(base)
        else:
            buf = self.state.buffers[self.rank]
            assert buf is not None
            self.ctx.memory.free(
                self.ctx.rank,
                f"mpi/win{self.win_id}",
                buf.nbytes,
            )
        if self.rank == 0:
            self.state.freed = True
        yield from self.comm._barrier_steps()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Window id={self.win_id} rank={self.rank}/{self.group_size}>"


def win_allocate(
    comm: "Comm",
    *,
    nbytes: int | None = None,
    shape: tuple[int, ...] | int | None = None,
    dtype=np.float64,
    memory_model: str = "unified",
) -> Window:
    """MPI_WIN_ALLOCATE: collective creation of a window over ``comm``.

    Pass either ``nbytes`` (window dtype becomes uint8) or ``shape`` +
    ``dtype``. Every rank gets a same-sized segment (CAF coarrays are
    symmetric, and MPI_WIN_ALLOCATE commonly allocates aligned symmetric
    segments — the optimization opportunity the paper cites in §3.1).
    ``memory_model`` picks the MPI-3 "unified" model (default) or the
    MPI-2-style "separate" model requiring :meth:`Window.sync`.
    """
    if (nbytes is None) == (shape is None):
        raise MpiError("pass exactly one of nbytes= or shape=")
    if memory_model not in ("unified", "separate"):
        raise MpiError(f"memory_model must be unified|separate, got {memory_model!r}")
    if nbytes is not None:
        count, dt = int(nbytes), np.dtype(np.uint8)
    else:
        count = int(np.prod(shape))
        dt = np.dtype(dtype)
    if count < 0:
        raise MpiError(f"negative window size {count}")

    def build(win_id: int) -> _WindowState:
        buffers = [np.zeros(count, dt) for _ in range(comm.size)]
        state = _WindowState(
            tuple(comm.state.group), buffers, win_id, memory_model=memory_model
        )
        if memory_model == "separate":
            state.private_copies = [np.zeros(count, dt) for _ in range(comm.size)]
            state.rma_dirty_mask = [
                np.zeros(count, bool) for _ in range(comm.size)
            ]
        return state

    win = _create_window(comm, build)
    comm.ctx.memory.alloc(
        comm.ctx.rank, f"mpi/win{win.win_id}", count * dt.itemsize
    )
    return win


def win_allocate_shared(
    comm: "Comm",
    *,
    shape: tuple[int, ...] | int,
    dtype=np.float64,
) -> Window:
    """MPI_WIN_ALLOCATE_SHARED: one contiguous allocation across the group
    (all members must share a node); segments are views into it, and
    :meth:`Window.shared_query` grants direct load/store access to peers'
    segments (§2.2)."""
    spec = comm.ctx.spec
    nodes = {spec.node_of(w) for w in comm.state.group}
    if len(nodes) > 1:
        raise MpiError(
            "win_allocate_shared requires all ranks on one shared-memory node"
        )
    count = int(np.prod(shape))
    dt = np.dtype(dtype)
    if count <= 0:
        raise MpiError(f"shared window size must be positive, got {count}")

    def build(win_id: int) -> _WindowState:
        block = np.zeros(count * comm.size, dt)
        buffers = [block[r * count : (r + 1) * count] for r in range(comm.size)]
        return _WindowState(
            tuple(comm.state.group), buffers, win_id, shared=True
        )

    win = _create_window(comm, build)
    comm.ctx.memory.alloc(
        comm.ctx.rank, f"mpi/win{win.win_id}", count * dt.itemsize
    )
    return win


def win_create_dynamic(comm: "Comm", *, dtype=np.uint8) -> Window:
    """MPI_WIN_CREATE_DYNAMIC: a window without memory; ranks expose
    regions later with :meth:`Window.attach` and address them by the
    returned displacement (§2.2, §3.1's remote-reference discussion)."""

    def build(win_id: int) -> _WindowState:
        state = _WindowState(
            tuple(comm.state.group), [None] * comm.size, win_id, dynamic=True
        )
        state.dtype = np.dtype(dtype)
        return state

    return _create_window(comm, build)


def _create_window(comm: "Comm", build) -> Window:
    """Collective window-creation skeleton (board + two barriers)."""
    world = comm.state.world
    # Per-rank allocation sequence number on this communicator: collectives
    # are called in the same order on every rank, so these agree.
    counter_key = (comm.state.context_id, comm.rank)
    seq = world._win_counter.get(counter_key, 0)
    world._win_counter[counter_key] = seq + 1
    board_key = (comm.state.context_id, seq)
    return comm.ctx.proc.run_script(_create_window_steps(comm, board_key, build))


def _create_window_steps(comm: "Comm", board_key: tuple[int, int], build):
    world = comm.state.world
    yield from comm._barrier_steps()
    # The first rank out of the barrier builds the shared state; everyone
    # else picks it up after the second barrier.
    if board_key not in world._win_boards:
        world._win_boards[board_key] = build(next(_win_ids))
    state = world._win_boards[board_key]
    yield from comm._barrier_steps()
    return Window(state, comm)
