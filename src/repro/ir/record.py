"""Record one instrumented run into a replayable op-stream trace.

The :class:`Recorder` receives every hook callback declared in
:mod:`repro.sim.irhook` and appends columnar op rows in global record
order (``gseq`` — which, because the engine is deterministic, *is* live
execution order; that invariant is what lets replay re-resolve same-time
races exactly). A recording is a capture: while
``repro.obs.capture`` has an IR path armed (:func:`recording` is the short
form), every ``Cluster`` built gets a recorder, installed for exactly the
duration of ``Cluster.run``, and each successful run leaves one trace
artifact.

Recording refuses fault plans, reliable transport, and crash schedules:
those change the communication *pattern* mid-run, and a trace is a frozen
pattern (replay can re-price a drop-free delay FaultPlan, but recording
under one would bake retransmissions into the stream). The capture counts
such runs as skipped instead of building a recorder for them.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.sim import irhook as _irhook
from repro.ir import ops as _ops
from repro.ir.trace import TRACE_VERSION, Trace
from repro.obs import capture as _capture


class RecordError(Exception):
    """Recording attached to an unsupported run configuration."""


class Recorder:
    """Accumulates the op stream of one cluster run."""

    def __init__(self, cluster):
        if cluster.faults is not None:
            raise RecordError(
                "cannot record under a FaultPlan: faults change the "
                "communication pattern; record fault-free and replay with a "
                "drop-free delay plan instead"
            )
        if cluster.fabric.reliable is not None:
            raise RecordError("cannot record with the reliable transport armed")
        self.cluster = cluster
        self.engine = cluster.engine
        self.nranks = cluster.nranks
        #: Pending cost expression, set by repro.sim.costs.charge[_in] and
        #: consumed by the sleep / call_at hook that directly follows.
        self.pending_cost: tuple[float, float, float, float] | None = None
        #: Chain id of the callback currently executing (CbThunk sets it).
        self.current_cb: int | None = None
        #: Raw delay of an in-flight ``call_in`` (set by Engine.call_in;
        #: bit-exact where ``when - now`` is not).
        self.pending_delay: float | None = None
        # Columnar op storage (python lists; converted to arrays at finalize).
        self._kind: list[int] = []
        self._chain: list[int] = []
        self._ck: list[int] = []
        self._a: list[int] = []
        self._b: list[int] = []
        self._c: list[int] = []
        self._c0: list[float] = []
        self._c1: list[float] = []
        self._c2: list[float] = []
        self._d: list[float] = []
        # Chains.
        self._chain_kind: list[int] = []
        self._chain_daemon: list[int] = []
        self._chain_rank: list[int] = []
        self._chain_start: list[float] = []
        self._proc_chain: dict[int, int] = {}
        # Obs side table.
        self._obs_rank: list[int] = []
        self._obs_kind: list[int] = []
        self._obs_nbytes: list[int] = []
        self._obs_seconds: list[float] = []
        self._obs_kind_ids: dict[str, int] = {}
        # Ids of the waitables (events and counters share one id space).
        self._next_oid = 0

    # -- context resolution ----------------------------------------------

    def _new_chain(self, kind: int, daemon: bool, rank: int, start: float) -> int:
        cid = len(self._chain_kind)
        self._chain_kind.append(kind)
        self._chain_daemon.append(1 if daemon else 0)
        self._chain_rank.append(rank)
        self._chain_start.append(start)
        return cid

    def _ctx(self) -> int:
        proc = self.engine._current
        if proc is not None:
            cid = self._proc_chain.get(proc.pid)
            if cid is None:
                rank = proc.pid if proc.pid < self.nranks else -1
                cid = self._new_chain(
                    _ops.CHAIN_PROC, proc.daemon, rank, self.engine.now
                )
                self._proc_chain[proc.pid] = cid
            return cid
        cid = self.current_cb
        if cid is None:
            raise RecordError("IR op recorded outside any execution context")
        return cid

    def _oid(self, obj) -> int:
        """``obj``'s waitable id: 0, 1, ... in order of first sight."""
        try:
            return obj._ir_id
        except AttributeError:
            oid = self._next_oid
            self._next_oid = oid + 1
            obj._ir_id = oid
            return oid

    # -- hook callbacks ---------------------------------------------------
    #
    # Each hook appends its row to the ten op columns in place: they run
    # once per recorded op.

    def on_sleep(self, duration: float) -> None:
        chain = self._ctx()
        pc = self.pending_cost
        if pc is None:
            ck, c0, c1, c2 = _irhook.CK_LIT, 0.0, 0.0, 0.0
        else:
            self.pending_cost = None
            ck, c0, c1, c2 = pc
        self._kind.append(_ops.OP_SLEEP)
        self._chain.append(chain)
        self._ck.append(ck)
        self._a.append(0)
        self._b.append(0)
        self._c.append(0)
        self._c0.append(c0)
        self._c1.append(c1)
        self._c2.append(c2)
        self._d.append(duration)

    def on_call_at(self, delay: float, fn):
        raw = self.pending_delay
        if raw is not None:
            self.pending_delay = None
            delay = raw
        if isinstance(fn, _irhook.CbThunk):
            return fn  # a transfer delivery, already recorded and chained
        chain = self._ctx()
        child = self._new_chain(_ops.CHAIN_CB, True, -1, 0.0)
        pc = self.pending_cost
        if pc is None:
            ck, c0, c1, c2 = _irhook.CK_LIT, 0.0, 0.0, 0.0
        else:
            self.pending_cost = None
            ck, c0, c1, c2 = pc
        self._kind.append(_ops.OP_CALL)
        self._chain.append(chain)
        self._ck.append(ck)
        self._a.append(child)
        self._b.append(0)
        self._c.append(0)
        self._c0.append(c0)
        self._c1.append(c1)
        self._c2.append(c2)
        self._d.append(delay)
        return _irhook.CbThunk(self, child, fn)

    def void_call(self, fn) -> None:
        """A callback ``on_call_at`` recorded was cancelled before it ran
        (``Engine.cancel``): its CALL row goes, so replay schedules nothing
        the live run did not run. Its chain stays, empty and never started."""
        kind, a = self._kind, self._a
        for i in range(len(kind) - 1, -1, -1):
            if kind[i] == _ops.OP_CALL and a[i] == fn.chain:
                for column in (
                    kind, self._chain, self._ck, a, self._b, self._c,
                    self._c0, self._c1, self._c2, self._d,
                ):
                    del column[i]
                return

    def on_transfer(
        self, src: int, dst: int, nbytes: int, rx_extra: float,
        deliver: float, fn,
    ):
        chain = self._ctx()
        child = self._new_chain(_ops.CHAIN_CB, True, -1, 0.0)
        self._kind.append(_ops.OP_XFER)
        self._chain.append(chain)
        self._ck.append(0)
        self._a.append(src * self.nranks + dst)
        self._b.append(child)
        self._c.append(nbytes)
        self._c0.append(1.0 if rx_extra > 0.0 else 0.0)
        self._c1.append(0.0)
        self._c2.append(0.0)
        self._d.append(deliver)
        return _irhook.CbThunk(self, child, fn)

    # Every waitable records as a counter: a fired SimEvent is ADD 1 and a
    # finished wait on it WAITGE 1; a Channel is a Counter of its arrivals.
    def on_add(self, waitable, n: int) -> None:
        chain = self._ctx()
        oid = self._oid(waitable)
        self._kind.append(_ops.OP_ADD)
        self._chain.append(chain)
        self._ck.append(0)
        self._a.append(oid)
        self._b.append(n)
        self._c.append(0)
        self._c0.append(0.0)
        self._c1.append(0.0)
        self._c2.append(0.0)
        self._d.append(0.0)

    def on_wait_geq(self, waitable, threshold: int) -> None:
        chain = self._ctx()
        oid = self._oid(waitable)
        self._kind.append(_ops.OP_WAITGE)
        self._chain.append(chain)
        self._ck.append(0)
        self._a.append(oid)
        self._b.append(threshold)
        self._c.append(0)
        self._c0.append(0.0)
        self._c1.append(0.0)
        self._c2.append(0.0)
        self._d.append(0.0)

    def on_obs(self, rank: int, kind: str, nbytes: int, seconds: float) -> None:
        kid = self._obs_kind_ids.get(kind)
        if kid is None:
            kid = self._obs_kind_ids[kind] = len(self._obs_kind_ids)
        self._obs_rank.append(rank)
        self._obs_kind.append(kid)
        self._obs_nbytes.append(nbytes)
        self._obs_seconds.append(seconds)

    # -- assembly ---------------------------------------------------------

    def finalize(self, *, makespan: float) -> Trace:
        import dataclasses

        spec = self.cluster.spec
        arrays = {
            "kind": np.asarray(self._kind, np.uint8),
            "chain": np.asarray(self._chain, np.uint32),
            "ck": np.asarray(self._ck, np.uint8),
            "a": np.asarray(self._a, np.int64),
            "b": np.asarray(self._b, np.int64),
            "c": np.asarray(self._c, np.int64),
            "c0": np.asarray(self._c0, np.float64),
            "c1": np.asarray(self._c1, np.float64),
            "c2": np.asarray(self._c2, np.float64),
            "d": np.asarray(self._d, np.float64),
            "chain_kind": np.asarray(self._chain_kind, np.uint8),
            "chain_daemon": np.asarray(self._chain_daemon, np.uint8),
            "chain_rank": np.asarray(self._chain_rank, np.int32),
            "chain_start": np.asarray(self._chain_start, np.float64),
            "obs_rank": np.asarray(self._obs_rank, np.int32),
            "obs_kind": np.asarray(self._obs_kind, np.int32),
            "obs_nbytes": np.asarray(self._obs_nbytes, np.int64),
            "obs_seconds": np.asarray(self._obs_seconds, np.float64),
        }
        # Op counts per kind name, in order of each kind's first op.
        kinds, firsts, ns = np.unique(
            arrays["kind"], return_index=True, return_counts=True
        )
        counts = {
            _ops.OP_NAMES[int(kinds[j])]: int(ns[j]) for j in np.argsort(firsts)
        }
        manifest: dict[str, Any] = {
            "ir_version": TRACE_VERSION,
            "app": self.cluster.app or "",
            "backend": self.cluster.backend or "",
            "nranks": self.nranks,
            "sim_seed": self.cluster.seed,
            "spec": dataclasses.asdict(spec),
            "makespan": makespan,
            "nops": len(self._kind),
            "nchains": len(self._chain_kind),
            "op_counts": counts,
            "obs_kinds": list(self._obs_kind_ids),
            "cost_fields": list(_irhook.COST_FIELDS),
        }
        return Trace(manifest=manifest, arrays=arrays)


# -- a recording is a capture (repro.obs.capture owns the session) ---------


def recording(path: str | os.PathLike):
    """Context-managed recording window: ``capture(record_ir=path)``."""
    return _capture.capture(record_ir=path)


def last_trace() -> Trace | None:
    """The most recently finalized :class:`Trace` (kept after the recording
    ends, until the next one starts)."""
    return _capture._session.last_trace
