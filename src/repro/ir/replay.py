"""Re-price a recorded trace under a different MachineSpec — no fibers.

The replay engine is a lean event merge over *compiled chains*: each
execution context's ops are walked in program order with a chain-local
clock, and only scheduling points (transfers, counter ops, scheduled
callbacks) enter a single ``(time, gseq)`` heap. Costs are evaluated
once per target spec as vectorized numpy expressions
(:mod:`repro.ir.costs`); the walk then applies them with the same
sequential IEEE additions the live engine performs, which is what makes
replayed makespans *bit-identical* to live runs at the recorded spec.

Same-time races (wake ordering) re-resolve through the heap's ``gseq``
tie-break: ``gseq`` is live execution order, and wait ops are recorded at
completion, so at the recorded spec the replayed resolution *is* the live
resolution. Under a different spec the tie-break is a deterministic
stand-in and structural choices (eager vs rendezvous, SRQ, poll-loop
iteration counts) stay frozen as recorded — ``docs/ir.md`` spells out the
validity model.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ir import ops as _ops
from repro.ir.costs import obs_formula, structure_warnings
from repro.ir.trace import Trace
from repro.sim.costs import NicState, eval_costs, srq_penalty
from repro.sim.network import MachineSpec


SCHEMA_NAME = "repro.ir.replay/1"


class ReplayError(Exception):
    """The trace cannot be replayed under the requested conditions."""


@dataclass
class ReplayResult:
    """Outcome of one re-priced replay."""

    makespan: float
    spec_name: str
    nranks: int
    backend: str
    app: str
    #: op kind -> {"calls", "bytes", "time"} aggregated over ranks.
    op_totals: dict[str, dict[str, Any]]
    #: per-rank op kind -> {"calls", "bytes", "time"}.
    per_rank: list[dict[str, dict[str, Any]]]
    comm_messages: np.ndarray
    comm_bytes: np.ndarray
    warnings: list[str] = field(default_factory=list)
    #: transfers whose recomputed delivery time differed from the recorded
    #: one (populated by validation replays at the recorded spec).
    deliver_mismatches: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_NAME,
            "app": self.app,
            "backend": self.backend,
            "nranks": self.nranks,
            "spec_name": self.spec_name,
            "makespan": self.makespan,
            "op_totals": {
                k: dict(v) for k, v in sorted(self.op_totals.items())
            },
            "per_rank": [
                {k: dict(v) for k, v in sorted(pr.items())} for pr in self.per_rank
            ],
            "comm": {
                "messages": self.comm_messages.tolist(),
                "bytes": self.comm_bytes.tolist(),
            },
            "warnings": list(self.warnings),
            "deliver_mismatches": self.deliver_mismatches,
        }


class CompiledTrace:
    """Spec-independent replay structure: per-chain op lists + raw columns.

    Compile once, replay under many specs (the sweep path's win).
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        a = trace.arrays
        self.nranks = trace.nranks
        self.kind = a["kind"].tolist()
        self.a = a["a"].tolist()
        self.b = a["b"].tolist()
        self.c = a["c"].tolist()
        self.c0 = a["c0"].tolist()
        self.d = a["d"].tolist()
        self.chain_kind = a["chain_kind"].tolist()
        self.chain_daemon = a["chain_daemon"].tolist()
        self.chain_rank = a["chain_rank"].tolist()
        self.chain_start = a["chain_start"].tolist()
        nchains = trace.nchains
        chain_ops: list[list[int]] = [[] for _ in range(nchains)]
        for i, ch in enumerate(a["chain"].tolist()):
            chain_ops[ch].append(i)
        self.chain_ops = chain_ops
        self.recorded_spec = trace.recorded_spec()
        self._recorded_fields = dataclasses.asdict(self.recorded_spec)
        self._recorded_fields.pop("name")
        # Comm matrices are spec-independent: the transfer pattern is frozen.
        nranks = self.nranks
        sel = a["kind"] == _ops.OP_XFER
        pairs = a["a"][sel].astype(np.int64)
        nb = a["c"][sel]
        n2 = nranks * nranks
        self.comm_messages = np.bincount(pairs, minlength=n2)[:n2].reshape(
            nranks, nranks
        )
        comm_bytes = np.zeros(n2, np.int64)
        np.add.at(comm_bytes, pairs, nb)
        self.comm_bytes = comm_bytes.reshape(nranks, nranks)
        # Obs side-table grouping: per (rank, kind) row indices in record
        # order, so per-spec totals reduce to grouped cumulative sums.
        obs_kinds: list[str] = trace.manifest.get("obs_kinds", [])
        self.obs_kinds = obs_kinds
        groups: list[dict[str, list[int]]] = [{} for _ in range(nranks)]
        for row, (r, kid) in enumerate(
            zip(a["obs_rank"].tolist(), a["obs_kind"].tolist())
        ):
            groups[r].setdefault(obs_kinds[kid], []).append(row)
        obs_nbytes = a["obs_nbytes"]
        self.obs_groups: list[dict[str, tuple[np.ndarray, int, int]]] = []
        for per in groups:
            compiled: dict[str, tuple[np.ndarray, int, int]] = {}
            for kname, idx in per.items():
                idx_a = np.asarray(idx)
                compiled[kname] = (idx_a, len(idx), int(obs_nbytes[idx_a].sum()))
            self.obs_groups.append(compiled)

    def same_spec(self, spec: MachineSpec) -> bool:
        if spec is self.recorded_spec:
            return True
        fields = dataclasses.asdict(spec)
        fields.pop("name")
        return fields == self._recorded_fields

    def costs_for(self, spec: MachineSpec) -> np.ndarray:
        a = self.trace.arrays
        return eval_costs(
            a["ck"], a["c0"], a["c1"], a["c2"], a["d"], spec, self.nranks
        )


def _check_faults(plan) -> None:
    for attr in ("drop_rate", "corrupt_rate", "dup_rate"):
        if getattr(plan, attr, 0.0):
            raise ReplayError(
                f"replay only supports drop-free FaultPlans: {attr}="
                f"{getattr(plan, attr)!r} would change the recorded pattern"
            )
    if getattr(plan, "crashes", ()):
        raise ReplayError("replay cannot apply image crashes to a recorded trace")


def replay(
    trace: Trace | CompiledTrace,
    spec: MachineSpec | None = None,
    *,
    faults=None,
    check_deliver: bool = False,
) -> ReplayResult:
    """Re-price ``trace`` under ``spec`` (default: the recorded spec).

    ``faults`` may be a drop-free :class:`~repro.sim.faults.FaultPlan`
    whose per-message delays are drawn in recorded transfer order.
    ``check_deliver=True`` counts transfers whose recomputed delivery time
    differs from the recorded one (a validation aid; meaningful only at
    the recorded spec with no faults).
    """
    compiled = trace if isinstance(trace, CompiledTrace) else CompiledTrace(trace)
    recorded = compiled.recorded_spec
    if spec is None:
        spec = recorded
    if faults is not None:
        _check_faults(faults)
    nranks = compiled.nranks
    same_spec = compiled.same_spec(spec)
    warnings = [] if same_spec else structure_warnings(recorded, spec, nranks)

    cost = compiled.costs_for(spec).tolist()
    makespan, deliver_miss = _run(compiled, cost, spec, nranks, faults, check_deliver)
    op_totals, per_rank, obs_warn = _obs_totals(compiled, spec, recorded, same_spec)
    warnings.extend(obs_warn)
    manifest = compiled.trace.manifest
    return ReplayResult(
        makespan=makespan,
        spec_name=spec.name,
        nranks=nranks,
        backend=manifest.get("backend", ""),
        app=manifest.get("app", ""),
        op_totals=op_totals,
        per_rank=per_rank,
        comm_messages=compiled.comm_messages,
        comm_bytes=compiled.comm_bytes,
        warnings=warnings,
        deliver_mismatches=deliver_miss,
    )


def _run(
    compiled: CompiledTrace,
    cost: list[float],
    spec: MachineSpec,
    nranks: int,
    faults,
    check_deliver: bool,
) -> tuple[float, int]:
    kind_l = compiled.kind
    a_l, b_l, c_l, c0_l, d_l = compiled.a, compiled.b, compiled.c, compiled.c0, compiled.d
    chain_ops = compiled.chain_ops
    nchains = len(chain_ops)
    ptr = [0] * nchains

    # The fabric model NetFabric.transfer steps, under the target spec.
    nic_deliver = NicState(spec, nranks).deliver
    srq_pen = srq_penalty(spec, nranks)

    heap: list[tuple[float, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    counters: dict[int, list] = {}  # waitable id -> [count, waiter chains]
    last = 0.0
    deliver_miss = 0
    faults_active = faults is not None and getattr(faults, "active", False)

    def sched(child: int, start: float) -> None:
        nonlocal last
        ops_c = chain_ops[child]
        if ops_c:
            push(heap, (start, ops_c[0], child))
        elif start > last:
            last = start

    OP_SLEEP = _ops.OP_SLEEP
    OP_CALL = _ops.OP_CALL
    OP_XFER = _ops.OP_XFER
    OP_ADD = _ops.OP_ADD
    OP_WAITGE = _ops.OP_WAITGE

    for cid in range(nchains):
        if compiled.chain_kind[cid] != _ops.CHAIN_CB:
            sched(cid, compiled.chain_start[cid])

    while heap:
        t, _gq, ch = pop(heap)
        if t > last:
            last = t
        ops_ch = chain_ops[ch]
        n_ch = len(ops_ch)
        p = ptr[ch]
        t0 = t
        while True:
            if p == n_ch:
                ptr[ch] = p
                if t > last:
                    last = t
                break
            i = ops_ch[p]
            k = kind_l[i]
            if k == OP_SLEEP:
                t += cost[i]
                p += 1
                continue
            if t != t0:
                # The chain's clock moved past the popped time: this op is
                # a fresh scheduling point — NIC/sync state must be touched
                # in global time order.
                ptr[ch] = p
                push(heap, (t, i, ch))
                break
            if k == OP_XFER:
                pair = a_l[i]
                src = pair // nranks
                dst = pair - src * nranks
                nb = c_l[i]
                deliver = nic_deliver(
                    src, dst, nb, t, srq_pen if c0_l[i] > 0.0 else 0.0
                )
                if faults_active:
                    decision = faults.draw(src, dst, nb)
                    if decision.discard or decision.duplicate:
                        raise ReplayError(
                            "FaultPlan drew a pattern-changing decision "
                            "(drop/corrupt/duplicate) during replay"
                        )
                    if decision.extra_delay > 0.0:
                        deliver += decision.extra_delay
                if check_deliver and deliver != d_l[i]:
                    deliver_miss += 1
                child = b_l[i]  # inlined sched() — this is the hot path
                child_ops = chain_ops[child]
                if child_ops:
                    push(heap, (deliver, child_ops[0], child))
                elif deliver > last:
                    last = deliver
            elif k == OP_CALL:
                child = a_l[i]
                start = t + cost[i]
                child_ops = chain_ops[child]
                if child_ops:
                    push(heap, (start, child_ops[0], child))
                elif start > last:
                    last = start
            elif k == OP_ADD:
                st = counters.get(a_l[i])
                if st is None:
                    counters[a_l[i]] = [b_l[i], []]
                else:
                    st[0] += b_l[i]
                    w = st[1]
                    if w:
                        st[1] = []
                        for wch in w:
                            push(heap, (t, chain_ops[wch][ptr[wch]], wch))
            elif k == OP_WAITGE:
                st = counters.get(a_l[i])
                if st is None:
                    st = counters[a_l[i]] = [0, []]
                if st[0] < b_l[i]:
                    st[1].append(ch)
                    ptr[ch] = p
                    break
            else:  # pragma: no cover - format invariant
                raise ReplayError(f"unknown op kind {k} at gseq {i}")
            p += 1

    # Every non-daemon process chain must have drained (at the recorded
    # spec this mirrors the live run completing; elsewhere a stuck chain
    # means the frozen pattern is invalid under the target conditions).
    stuck = [
        cid
        for cid in range(nchains)
        if compiled.chain_kind[cid] == _ops.CHAIN_PROC
        and not compiled.chain_daemon[cid]
        and ptr[cid] < len(chain_ops[cid])
    ]
    if stuck:
        ranks = [compiled.chain_rank[cid] for cid in stuck]
        raise ReplayError(f"replay deadlock: process chains stuck (ranks {ranks})")

    return last, deliver_miss


def _obs_totals(
    compiled: CompiledTrace,
    spec: MachineSpec,
    recorded: MachineSpec,
    same_spec: bool,
) -> tuple[dict, list, list[str]]:
    arr = compiled.trace.arrays
    obs_kinds = compiled.obs_kinds
    nranks = compiled.nranks
    seconds = arr["obs_seconds"]
    warnings: list[str] = []
    if not same_spec and obs_kinds:
        seconds = seconds.copy()
        kind_col = arr["obs_kind"]
        unrepriced = []
        for kid, kname in enumerate(obs_kinds):
            mask = kind_col == kid
            if not mask.any():
                continue
            priced = obs_formula(kname, arr["obs_nbytes"][mask], spec, recorded, nranks)
            if priced is None:
                unrepriced.append(kname)
            else:
                seconds[mask] = priced
        if unrepriced:
            warnings.append(
                "per-op totals kept recorded values for span-measured kinds: "
                + ", ".join(sorted(unrepriced))
            )
    # Per-(rank, kind) cumulative sums over the precompiled record-order
    # index groups: the same left-to-right IEEE additions the live Metrics
    # registry performs, one C loop per group instead of a python row walk.
    per_rank: list[dict[str, dict[str, Any]]] = []
    for groups in compiled.obs_groups:
        per = {}
        for kname, (idx, calls, nbytes) in groups.items():
            secs = seconds[idx]
            per[kname] = {
                "calls": calls,
                "bytes": nbytes,
                "time": float(np.cumsum(secs)[-1]) if calls else 0.0,
            }
        per_rank.append(per)
    totals: dict[str, dict[str, Any]] = {}
    for pr in per_rank:  # rank order, mirroring Metrics.aggregate merges
        for kname, d in pr.items():
            agg = totals.get(kname)
            if agg is None:
                agg = totals[kname] = {"calls": 0, "bytes": 0, "time": 0.0}
            agg["calls"] += d["calls"]
            agg["bytes"] += d["bytes"]
            agg["time"] += d["time"]
    return totals, per_rank, warnings


def validate_trace(trace: Trace) -> list[str]:
    """Deep validation: structure, cost annotations, and self-replay.

    Returns a list of problems (empty = valid). Self-replay at the
    recorded spec must reproduce the recorded makespan bit-for-bit and
    every recomputed delivery time must equal the recorded one.
    """
    problems: list[str] = []
    try:
        trace.check_structure()
    except Exception as exc:
        return [f"structure: {exc}"]
    compiled = CompiledTrace(trace)
    recorded = compiled.recorded_spec
    # Annotated costs must re-evaluate to the recorded durations.
    arr = trace.arrays
    costs = compiled.costs_for(recorded)
    priced = (arr["ck"] != 0) & np.isin(arr["kind"], (_ops.OP_SLEEP, _ops.OP_CALL))
    bad = priced & (costs != arr["d"])
    if bad.any():
        idx = np.nonzero(bad)[0][:5]
        problems.append(
            f"{int(bad.sum())} annotated costs disagree with recorded "
            f"durations at the recorded spec (first at gseq {idx.tolist()})"
        )
    try:
        result = replay(compiled, recorded, check_deliver=True)
    except Exception as exc:
        problems.append(f"self-replay failed: {exc}")
        return problems
    want = trace.manifest.get("makespan")
    if result.makespan != want:
        problems.append(
            f"self-replay makespan {result.makespan!r} != recorded {want!r}"
        )
    if result.deliver_mismatches:
        problems.append(
            f"{result.deliver_mismatches} transfer delivery times disagree "
            "with the recorded fabric schedule"
        )
    return problems


def check_trace(path) -> tuple[Trace, list[str]]:
    """Load the trace at ``path`` and list what :func:`validate_trace` finds:
    the check both ``ir validate`` and ``obs validate`` run."""
    trace = Trace.load(path)
    return trace, validate_trace(trace)
