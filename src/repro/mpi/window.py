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

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import NO_OP, REPLACE, Op
from repro.mpi.request import Request, recorded_steps
from repro.sim import costs as _costs
from repro.sim.sync import SimEvent
from repro.util.buffers import flatten, snapshot
from repro.util.errors import MpiError, MpiProcFailedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.comm import Comm

_RMA_ENVELOPE_BYTES = 48


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
    """What the ranks of one window share: group, exposed memory, the
    target-side lock table. Nothing is built per rank — an origin's
    completion tracking lives on its own :class:`Window` handle."""

    def __init__(
        self,
        group: tuple[int, ...],
        buffers: list[np.ndarray | None],
        win_id: int,
        *,
        dtype=np.uint8,
        memory_model: str = "unified",
        dynamic: bool = False,
        shared: bool = False,
    ):
        self.group = group  # comm rank -> world rank
        self.buffers = buffers  # per comm rank, flat arrays of the window dtype
        self.win_id = win_id
        self.dtype = np.dtype(dtype)  # element type of every rank's memory
        self.memory_model = memory_model  # "unified" (MPI-3) or "separate" (MPI-2)
        self.dynamic = dynamic  # MPI_WIN_CREATE_DYNAMIC: memory attached later
        self.shared = shared  # MPI_WIN_ALLOCATE_SHARED
        # Target-side lock table, target -> {mode, holders, wait queue}; a
        # target gets its entry the first time someone locks it.
        self.locks: dict[int, dict] = {}
        # Dynamic windows: rank -> {base displacement -> attached region}.
        self.regions: dict[int, dict[int, np.ndarray]] = {}
        # Separate model only (win_allocate fills it in): per rank, the mask
        # of slots RMA has updated since that rank's last sync.
        self.rma_dirty_mask: list[np.ndarray] = []
        self.freed = False

    # -- target memory resolution (standard vs dynamic windows) -----------

    def resolve(self, rank: int, offset: int, count: int) -> tuple[np.ndarray, int]:
        """Locate the target array and local offset for an access."""
        if self.dynamic:
            for base, region in self.regions.get(rank, {}).items():
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
        if self.rma_dirty_mask:
            self.rma_dirty_mask[rank][off : off + data.size] = True

    def read_target(self, rank: int, offset: int, count: int) -> np.ndarray:
        buf, off = self.resolve(rank, offset, count)
        return buf[off : off + count].copy()

    def apply_target(self, rank: int, offset: int, data: np.ndarray, op: Op) -> np.ndarray:
        """Atomically combine; returns the previous contents."""
        buf, off = self.resolve(rank, offset, data.size)
        sl = slice(off, off + data.size)
        old = buf[sl].copy()
        buf[sl] = op(buf[sl], data)
        if self.rma_dirty_mask:
            self.rma_dirty_mask[rank][sl] = True
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
        # Remote completion is a fact about the *origin's* ops (FLUSH only
        # speaks about the caller's own), so this handle owns it: target ->
        # my ops not yet complete there (absent = none), and their sum, so
        # FLUSH_ALL tests one integer; and their requests (-> target), which
        # a failure fails.
        self._pending: dict[int, int] = {}
        self._inflight = 0
        self._open: dict[Request, int] = {}
        # ULFM: target -> the first of my ops there a failure dropped, until
        # the next flush covering the target raises its error.
        self._lost: dict[int, Request] = {}
        self._dirty = False  # epoch activity since my last FLUSH_ALL
        self._lock_all_held = False
        # Events fired when _pending[target] / _inflight drain to zero.
        self._flush_waiters: dict[int, list[SimEvent]] = {}
        self._quiet_waiters: list[SimEvent] = []
        # Rendezvous PUT payloads still riding as live views of my user
        # buffer (zero-copy): flush_local buffers these before the user
        # regains reuse rights. Cleared at delivery.
        self._unread_puts: set[_PendingPut] = set()
        self._next_base = 0  # dynamic windows: next attach() displacement
        self._private: np.ndarray | None = None  # separate model: my private copy

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
            private = self._private
            assert private is not None
            if san is not None and self.state.rma_dirty_mask[self.rank].any():
                san.win_sync_violation(
                    self._world(self.rank), self.win_id, [(0, private.nbytes)]
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
        public, private = state.buffers[self.rank], self._private
        mask = state.rma_dirty_mask[self.rank]
        assert public is not None and private is not None
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
        base = self._next_base
        # Leave a guard gap so out-of-region accesses fault.
        self._next_base = base + nelems + 64
        region = np.zeros(nelems, self.state.dtype)
        self.state.regions.setdefault(self.rank, {})[base] = region
        self.ctx.memory.alloc(
            self.ctx.rank, f"mpi/win{self.win_id}", region.nbytes
        )
        return base

    def detach(self, base: int) -> None:
        """MPI_WIN_DETACH."""
        if not self.state.dynamic:
            raise MpiError("detach() on a non-dynamic window")
        region = self.state.regions.get(self.rank, {}).pop(base, None)
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

    def _world(self, comm_rank: int) -> int:
        return self.state.group[comm_rank]

    def _holds_lock(self, target: int) -> bool:
        lock = self.state.locks.get(target)
        return lock is not None and self.rank in lock["holders"]

    # -- the life of one op at its origin -------------------------------------

    def _begin(
        self, op: str, target: int, elem_ranges, *, is_write: bool,
        atomic: bool = False, round_trip: bool = False, label: str | None = None,
    ) -> Request:
        """Start one RMA op: count it pending at ``target``, hand the access
        to the sanitizer (if the cluster sanitizes) and return its request,
        named ``label`` (default ``op``).

        The sanitizer checks the passive-target epoch contract (an op needs
        lock_all, a lock on the target, or an open fence) and keeps a shadow
        record until the op's synchronization point: a flush, or for
        ``round_trip`` ops request completion, which *is* remote completion.
        """
        if self.ctx.cluster.failed_ranks:  # the target, or this rank, may have failed
            self.comm.check_alive(self.rank)
            self.comm.check_alive(target)
        req = Request(
            "%s(win=%d,target=%d)", self.ctx.proc, label or op, self.win_id, target
        )
        self._pending[target] = self._pending.get(target, 0) + 1
        self._inflight += 1
        self._open[req] = target
        self._dirty = True
        san = self._san
        if san is None:
            return req
        me, target_world = self._world(self.rank), self._world(target)
        if not (
            self._lock_all_held
            or self._holds_lock(target)
            or self.win_id in san.fence_windows
        ):
            san.epoch_violation(me, op, self.win_id, target_world)
        itemsize = self.state.dtype.itemsize
        rec = san.record_remote(
            me, ("win", self.win_id, target_world),
            [(lo * itemsize, hi * itemsize) for lo, hi in elem_ranges],
            op, is_write=is_write, atomic=atomic,
        )
        if round_trip and rec is not None:
            req.subscribe(lambda: san.release_records((rec,)))
        return req

    def _op_done(self, target: int, req: Request) -> None:
        """My op ``req`` is complete at ``target`` (its ack or response
        landed here): wake my flushes that were waiting for exactly that."""
        if self._open.pop(req, None) is None:  # a failure dropped it already
            return
        left = self._pending[target] - 1
        self._inflight -= 1
        if left:
            self._pending[target] = left
        else:
            del self._pending[target]
            self._drained(target)

    def _drained(self, target: int) -> None:
        """No op of mine is pending at ``target`` any more: wake the flushes
        waiting for that, and for everything if nothing is."""
        for ev in self._flush_waiters.pop(target, ()):
            ev.fire()
        if self._inflight == 0 and self._quiet_waiters:
            waiters, self._quiet_waiters = self._quiet_waiters, []
            for ev in waiters:
                ev.fire()

    # -- failures (ULFM) ---------------------------------------------------------

    def _on_rank_failure(self, world_rank: int) -> None:
        """Scheduler-context: my ops pending at ``world_rank`` (at every
        target, if it is this rank) will never complete. Their requests
        fail, they stop counting, their flushes wake, and the next flush
        covering them raises the loss once."""
        group = self.state.group
        if world_rank not in group:
            return
        dead = group.index(world_rank)
        for t in list(self._pending) if dead == self.rank else [dead]:
            if self._pending.pop(t, None) is None:
                continue
            reqs = [req for req, at in self._open.items() if at == t]
            for req in reqs:
                del self._open[req]
            self._inflight -= len(reqs)
            error = MpiProcFailedError(world_rank, (
                f"RMA on window {self.win_id} to target {t}: world rank {world_rank} "
                "failed before the op completed, so its data may not have landed: "
                "shrink the communicator over the survivors, or restart from a checkpoint"
            ))
            for req in reqs:
                req._fail(error)
            self._lost.setdefault(t, reqs[0])
            self._drained(t)

    def _lost_error(self, target: int | None) -> Exception | None:
        """The error of a flush of ``target`` (None: of every target) over
        dropped ops, or None. Reported once: the next flush completes."""
        lost = sorted(self._lost) if target is None else [t for t in self._lost if t == target]
        reqs = [self._lost.pop(t) for t in lost]
        return reqs[0]._raised_error() if reqs else None

    def _observed(self, kind: str, nbytes: int, steps):
        """``steps`` (one blocking op's script) — followed, when metrics
        are on, by its ``kind`` record of ``nbytes`` and the time it took."""
        obs = self._obs
        if obs is None:
            return steps
        return recorded_steps(obs, self.ctx.engine, self.ctx.rank, kind, nbytes, steps)

    # -- one-sided data movement ------------------------------------------------

    def _one_way(self, target: int, nbytes: int, apply, req: Request) -> None:
        """Ship a one-way op (PUT/ACCUMULATE) of ``nbytes`` payload.

        ``apply()`` commits it at delivery — after the target-side software
        delay when RMA rides send/recv (Fig. 5) — but the origin only
        *learns* of remote completion an ack later, which is when the op
        stops being pending and ``req`` completes.
        """
        ctx = self.ctx
        src, dst = self._world(self.rank), self._world(target)

        def on_delivered() -> None:
            def commit() -> None:
                def acked() -> None:
                    self._op_done(target, req)
                    req.fire()

                apply()
                _costs.charge_in(ctx, "ack", acked, a=src, b=dst)

            _costs.charge_in(ctx, "mpi.target_delay", commit)

        ctx.fabric.send(
            src, dst, nbytes + _RMA_ENVELOPE_BYTES, on_delivered
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
        src, dst = self._world(self.rank), self._world(target)

        def at_target() -> None:
            def respond() -> None:
                result = serve()

                def at_origin() -> None:
                    dest[...] = result
                    self._op_done(target, req)
                    req.fire()

                fabric.send(dst, src, response_nbytes, at_origin)

            _costs.charge_in(ctx, "mpi.target_delay", respond)

        fabric.send(src, dst, request_nbytes, at_target)

    def put(self, data, target: int, offset: int = 0) -> None:
        """MPI_PUT: one-sided write; remote completion requires a flush."""
        self.rput(data, target, offset)

    def rput(self, data, target: int, offset: int = 0) -> Request:
        """MPI_RPUT: like PUT, returning a request for *local* completion."""
        return self.ctx.proc.run_script(
            self._put_steps(data, target, [(offset, np.size(data))])
        )

    def put_runs(self, data, target: int, runs: list[tuple[int, int]]) -> None:
        """PUT with a derived datatype: scatter ``data`` into the target's
        window at the given (offset, length) runs, as one network message
        (how MPI_Type_vector + MPI_PUT moves strided sections). One run is
        a contiguous PUT and is priced and named as one."""
        self.ctx.proc.run_script(self._put_steps(data, target, runs))

    def _put_steps(self, data, target: int, runs: list[tuple[int, int]]):
        """The one PUT script: ``data`` over the (offset, length) ``runs``
        of ``target``'s window. More than one run pays the origin's pack."""
        arr, private = flatten(data, self.state.dtype)
        op = "rput" if len(runs) == 1 else "put_runs"
        ranges = self._check_runs(target, runs, arr.size, "put data")
        yield _costs.cost(self.ctx, "mpi.rput" if op == "rput" else "mpi.put_runs", arr.nbytes)
        req = self._begin(op, target, ranges, is_write=True)
        eager = arr.nbytes <= self.ctx.spec.mpi_eager_threshold
        # Eager PUTs complete locally on return, so the library must buffer
        # the data now; rendezvous PUTs may read the user buffer at delivery
        # time because the contract forbids reuse before local completion —
        # and flush_local (which grants reuse early) buffers any still-unread
        # payload via the _unread_puts registry.
        payload = arr.copy() if (eager and not private) else arr
        pp = None
        if not eager and not private:
            pp = _PendingPut(target, payload)
            self._unread_puts.add(pp)

        def commit() -> None:
            if pp is not None:
                data = pp.arr
                self._unread_puts.discard(pp)
            else:
                data = payload
            cursor = 0
            for lo, hi in ranges:
                self.state.write_target(target, lo, data[cursor : cursor + hi - lo])
                cursor += hi - lo

        self._one_way(target, payload.nbytes, commit, req)
        if eager:
            # Small transfers are buffered by the library: locally complete now.
            req.fire()
        return req

    def get(self, dest, target: int, offset: int = 0) -> None:
        """MPI_GET into ``dest``; completion requires a flush (use rget+wait
        for request-based completion)."""
        self.rget(dest, target, offset)

    def rget(self, dest, target: int, offset: int = 0) -> Request:
        """MPI_RGET: request completion == local *and* remote completion."""
        return self.ctx.proc.run_script(
            self._get_steps(dest, target, [(offset, np.size(dest))])
        )

    def get_runs(self, dest, target: int, runs: list[tuple[int, int]]) -> Request:
        """GET with a derived datatype: gather the target's runs into
        ``dest`` as one response message; returns a request (like RGET).
        One run is a contiguous RGET and is priced and named as one."""
        return self.ctx.proc.run_script(self._get_steps(dest, target, runs))

    def _get_steps(self, dest, target: int, runs: list[tuple[int, int]]):
        """The one GET script: the (offset, length) ``runs`` of ``target``'s
        window into ``dest``, one response message."""
        dest_arr = np.asarray(dest)
        dtype = self.state.dtype
        op = "rget" if len(runs) == 1 else "get_runs"
        if dest_arr.dtype != dtype:
            raise MpiError(f"{op} destination dtype {dest_arr.dtype} != window dtype {dtype}")
        ranges = self._check_runs(target, runs, dest_arr.size, "get buffer")
        nbytes = dest_arr.size * dtype.itemsize
        yield _costs.cost(self.ctx, "mpi.rget" if op == "rget" else "mpi.get_runs", nbytes)
        req = self._begin(op, target, ranges, is_write=False, round_trip=True)

        def gather() -> np.ndarray:
            parts = [self.state.read_target(target, lo, hi - lo) for lo, hi in ranges]
            return parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0, dtype)])

        self._round_trip(
            target, _RMA_ENVELOPE_BYTES, nbytes, gather, dest_arr.reshape(-1), req
        )
        return req

    def _check_runs(self, target: int, runs, size: int, what: str) -> list[tuple[int, int]]:
        """Validate an access of ``size`` elements over (offset, length)
        runs; returns them as [lo, hi) element ranges."""
        ranges = []
        total = 0
        for off, length in runs:
            off, length = int(off), int(length)
            self._check_target(target, off, length)
            ranges.append((off, off + length))
            total += length
        if size != total:
            raise MpiError(f"{what} has {size} elements, runs cover {total}")
        return ranges

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
        snap = snapshot(data, self.state.dtype)
        self._check_target(target, offset, snap.size)
        yield _costs.cost(self.ctx, "mpi.accumulate", snap.nbytes)
        req = self._begin(
            "raccumulate", target, [(offset, offset + snap.size)],
            is_write=True, atomic=True,
        )
        self._one_way(
            target, snap.nbytes,
            lambda: self.state.apply_target(target, offset, snap, op), req,
        )
        if snap.nbytes <= self.ctx.spec.mpi_eager_threshold:
            req.fire()
        return req

    def get_accumulate(self, data, result, target: int, offset: int = 0, op: Op = NO_OP):
        """MPI_GET_ACCUMULATE (blocking wait on the internal request)."""
        return self.ctx.proc.run_script(
            self._observed(
                "mpi.fetch_op", np.asarray(result).nbytes,
                self._fetch_op_steps(data, result, target, offset, op),
            )
        )

    def fetch_and_op(self, value, result, target: int, offset: int = 0, op: Op = NO_OP):
        """MPI_FETCH_AND_OP: single-element fast path of GET_ACCUMULATE."""
        return self.get_accumulate(value, result, target, offset, op)

    def _fetch_op_steps(self, data, result, target: int, offset: int, op: Op):
        snap = snapshot(data, self.state.dtype)
        result_arr = np.asarray(result).reshape(-1)
        self._check_target(target, offset, snap.size)
        yield _costs.cost(self.ctx, "mpi.atomic_origin")
        req = self._begin(
            "fetch_and_op", target, [(offset, offset + snap.size)],
            is_write=True, atomic=True, round_trip=True, label="fetch_op",
        )
        self._round_trip(
            target, snap.nbytes + _RMA_ENVELOPE_BYTES, snap.nbytes,
            lambda: self.state.apply_target(target, offset, snap, op),
            result_arr, req,
        )
        yield from req._wait_steps()
        return req.status

    def compare_and_swap(self, compare, value, result, target: int, offset: int = 0):
        """MPI_COMPARE_AND_SWAP on a single element."""
        return self.ctx.proc.run_script(
            self._observed(
                "mpi.cas", self.state.dtype.itemsize,
                self._compare_and_swap_steps(compare, value, result, target, offset),
            )
        )

    def _compare_and_swap_steps(self, compare, value, result, target: int, offset: int):
        dtype = self.state.dtype
        cmp_val = np.asarray(compare, dtype=dtype).reshape(())
        new_val = np.asarray(value, dtype=dtype).reshape(())
        result_arr = np.asarray(result).reshape(-1)
        self._check_target(target, offset, 1)
        yield _costs.cost(self.ctx, "mpi.atomic_origin")
        req = self._begin(
            "compare_and_swap", target, [(offset, offset + 1)],
            is_write=True, atomic=True, round_trip=True, label="cas",
        )

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
        return result_arr[0]

    # -- passive-target synchronization ------------------------------------------

    def lock_all(self) -> None:
        """MPI_WIN_LOCK_ALL (shared): open a passive epoch to every target."""
        self.ctx.proc.run_script(self._lock_all_steps())

    def _lock_all_steps(self):
        if self._lock_all_held:
            raise MpiError("lock_all while already holding lock_all")
        yield _costs.cost(self.ctx, "mpi.flush_overhead")
        self._lock_all_held = True

    def unlock_all(self) -> None:
        """MPI_WIN_UNLOCK_ALL: completes all outstanding ops, closes the epoch."""
        self.ctx.proc.run_script(self._unlock_all_steps())

    def _unlock_all_steps(self):
        if not self._lock_all_held:
            raise MpiError("unlock_all without lock_all")
        yield from self._flush_all_steps()
        self._lock_all_held = False

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
        lock = self.state.locks.setdefault(
            target, {"mode": None, "holders": set(), "queue": []}
        )
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
        if not self._holds_lock(target):
            raise MpiError(f"unlock(target={target}) without holding the lock")
        lock = self.state.locks[target]
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
        return self.ctx.proc.run_script(self._rflush_steps(target))

    def _rflush_steps(self, target: int):
        if target not in self._lost:  # else its loss is the error
            self._check_target(target, 0, 0)
        yield _costs.cost(self.ctx, "mpi.rflush")
        req = Request("rflush(win=%d,t=%d)", self.ctx.proc, self.win_id, target)
        self._when_quiet(req, target)
        return req

    def rflush_all(self) -> Request:
        """MPI_WIN_RFLUSH_ALL: request-based remote completion to every
        target, at constant (not linear-in-P) software cost."""
        return self.ctx.proc.run_script(self._rflush_all_steps())

    def _rflush_all_steps(self):
        yield _costs.cost(self.ctx, "mpi.rflush_all")
        self._dirty = False
        req = Request("rflush_all(win=%d)", self.ctx.proc, self.win_id)
        self._when_quiet(req)
        return req

    def _when_quiet(self, req: Request, target: int | None = None) -> None:
        """Complete ``req`` once my ops pending *now* — at ``target``, or at
        every target — are done, or fail it if a failure dropped some
        (:meth:`_lost_error`); the sanitizer records they hold open are
        released with it."""
        san = self._san
        if san is not None:
            open_recs = san.open_window_records(
                self.win_id, self._world(self.rank),
                None if target is None else self._world(target),
            )
            if open_recs:
                req.subscribe(lambda: san.release_records(open_recs))
        # Per-target tracking, not the _inflight counter: the request must
        # complete when the ops pending *at call time* drain, and _inflight
        # also counts ops the origin issues after rflush returns — including
        # ops to targets that had nothing pending here.
        remaining = [t for t in sorted(self._pending) if target is None or t == target]

        def settle() -> None:
            err = self._lost_error(target) if self._lost else None
            if err is None:
                req.fire()
            else:
                req._fail(err)

        if not remaining:
            settle()
            return
        outstanding = [len(remaining)]

        def one_done() -> None:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                settle()

        for t in remaining:
            ev = SimEvent(f"rflush-track(o={self.rank},t={t})")
            self._flush_waiters.setdefault(t, []).append(ev)
            ev.subscribe(one_done)

    def flush(self, target: int) -> None:
        """MPI_WIN_FLUSH: wait for remote completion of my ops at ``target``."""
        self.ctx.proc.run_script(self._flush_steps(target))

    def _flush_steps(self, target: int):
        return self._observed("mpi.flush", 0, self._flush_wait(target))

    def _flush_wait(self, target: int):
        if target not in self._lost:  # else its loss is the error
            self._check_target(target, 0, 0)
        yield _costs.cost(self.ctx, "mpi.flush_overhead")
        while target in self._pending:
            ev = SimEvent(f"flush(win={self.win_id},o={self.rank},t={target})")
            self._flush_waiters.setdefault(target, []).append(ev)
            yield from ev._wait_steps(self.ctx.proc)
        if self._lost:
            err = self._lost_error(target)
            if err is not None:
                raise err
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
        # Active epochs and the idle walk are distinct cost-table rows
        # (mpi.flush_all.walk vs .skip) — mirror the split in the metrics so
        # the linear-in-P active cost is not averaged away under the flat
        # idle calls (§3.4, Fig. 4).
        kind = "mpi.flush_all" if self._dirty else "mpi.flush_all.idle"
        return self._observed(kind, 0, self._flush_all_wait())

    def _flush_all_wait(self):
        if self._dirty:
            yield _costs.cost(self.ctx, "mpi.flush_all.walk", a=self.group_size)
            self._dirty = False
        else:
            yield _costs.cost(self.ctx, "mpi.flush_all.skip")
        # The modeled cost above is linear in group size (MPICH behaviour);
        # the wall-clock wait is one counter check — _inflight hits zero
        # exactly when the last pending op to any target completes, so this
        # resumes at the same virtual time a per-target loop would.
        while self._inflight > 0:
            ev = SimEvent(f"flush_all(win={self.win_id},o={self.rank})")
            self._quiet_waiters.append(ev)
            yield from ev._wait_steps(self.ctx.proc)
        if self._lost:
            raise self._lost_error(None)
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
        # Privatize still-in-flight PUT payloads viewing the user buffer: it
        # cannot have changed since the put (reuse was illegal until now), so
        # copying at this instant preserves the put-time value.
        pend = self._unread_puts
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
            for base in list(self.state.regions.get(self.rank, ())):
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
        self.ctx.cluster.failure_listeners.remove(self._on_rank_failure)
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
            tuple(comm.state.group), buffers, win_id,
            dtype=dt, memory_model=memory_model,
        )
        if memory_model == "separate":
            state.rma_dirty_mask = [
                np.zeros(count, bool) for _ in range(comm.size)
            ]
        return state

    win = _create_window(comm, build, count * dt.itemsize)
    if memory_model == "separate":
        win._private = np.zeros(count, dt)
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
            tuple(comm.state.group), buffers, win_id, dtype=dt, shared=True
        )

    return _create_window(comm, build, count * dt.itemsize)


def win_create_dynamic(comm: "Comm", *, dtype=np.uint8) -> Window:
    """MPI_WIN_CREATE_DYNAMIC: a window without memory; ranks expose
    regions later with :meth:`Window.attach` and address them by the
    returned displacement (§2.2, §3.1's remote-reference discussion)."""

    def build(win_id: int) -> _WindowState:
        return _WindowState(
            tuple(comm.state.group), [None] * comm.size, win_id,
            dtype=dtype, dynamic=True,
        )

    return _create_window(comm, build)


def _create_window(comm: "Comm", build, segment_bytes: int | None = None) -> Window:
    """Collective window creation: the ranks agree (``Comm._agree_steps``)
    on one shared state, which the first of them builds under a fresh id;
    books this rank's ``segment_bytes`` of window memory, if it has any yet."""
    world = comm.state.world
    state = comm.ctx.proc.run_script(
        comm._agree_steps(None, lambda _args: build(world.next_win_id()))
    )
    win = Window(state, comm)
    world.failure_listeners.append(win._on_rank_failure)  # until free()
    if segment_bytes is not None:
        comm.ctx.memory.alloc(comm.ctx.rank, f"mpi/win{win.win_id}", segment_bytes)
    return win
