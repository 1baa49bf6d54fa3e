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
from repro.ir.costs import obs_prices, structure_warnings
from repro.ir.trace import Trace
from repro.sim.costs import NicState, cost_index, eval_costs, srq_penalty
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
    """Spec-independent replay structure, built once per trace and shared
    by every replay of it (the sweep path's win). It precomputes:

    * the op columns ``kind``/``chain``/``a``/``b``/``c``/``c0``/``d`` as
      python lists;
    * the chains as links: each op's successor in its chain (``next``,
      -1 after the last) and each chain's first gseq (``chain_first``,
      -1 for an empty chain);
    * ``nwait``, the waitable id space (``Recorder._oid`` numbers
      waitables 0..n-1), so a replay's counters are two dense lists;
    * the initial heap (every process chain at its start), the latest
      start of a process chain with no ops, and the non-daemon process
      chains a finished replay must have drained;
    * ``cost_index``, the rows of each cost expression kind, which
      :func:`~repro.sim.costs.eval_costs` prices under a target spec;
    * the transfer pattern's comm matrices, which no spec changes;
    * the obs side table grouped per ``(rank, kind)`` in record order,
      with each group's recorded time, and per obs kind its rows and
      their message sizes (``np.unique`` values and inverse), what
      re-pricing the kind reads.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        a = trace.arrays
        self.nranks = trace.nranks
        kind = a["kind"]
        self.kind = kind.tolist()
        self.a = a["a"].tolist()
        self.b = a["b"].tolist()
        self.c = a["c"].tolist()
        self.c0 = a["c0"].tolist()
        self.d = a["d"].tolist()
        chain_kind = a["chain_kind"].tolist()
        chain_daemon = a["chain_daemon"].tolist()
        chain_start = a["chain_start"].tolist()
        self.chain_rank = a["chain_rank"].tolist()
        nchains = trace.nchains
        # Each op's successor in its chain (-1 after the last) and each
        # chain's first op (-1 for an empty chain): a replay walks a chain
        # by gseq alone.
        self.chain = a["chain"].tolist()
        self.next = nxt = [-1] * len(self.chain)
        self.chain_first = first = [-1] * nchains
        tail = [-1] * nchains
        for i, ch in enumerate(self.chain):
            if tail[ch] < 0:
                first[ch] = i
            else:
                nxt[tail[ch]] = i
            tail[ch] = i
        waits = a["a"][(kind == _ops.OP_ADD) | (kind == _ops.OP_WAITGE)]
        self.nwait = int(waits.max()) + 1 if waits.size else 0
        # Process chains start the replay (callback chains wait for their
        # CALL / XFER). A sorted list is a heap; keys (time, gseq) are
        # unique, so the pop order is the one sequential pushes give.
        start_heap = []
        self.start_last = 0.0
        for cid in range(nchains):
            if chain_kind[cid] == _ops.CHAIN_CB:
                continue
            start = chain_start[cid]
            if first[cid] >= 0:
                start_heap.append((start, first[cid], cid))
            elif start > self.start_last:
                self.start_last = start
        start_heap.sort()
        self.start_heap = start_heap
        #: Non-daemon process chains with ops: each must reach its end.
        self.proc_chains = [
            cid
            for cid in range(nchains)
            if chain_kind[cid] == _ops.CHAIN_PROC
            and not chain_daemon[cid]
            and first[cid] >= 0
        ]
        self.cost_index = cost_index(a["ck"])
        self.recorded_spec = trace.recorded_spec()
        self._recorded_fields = dataclasses.asdict(self.recorded_spec)
        self._recorded_fields.pop("name")
        # Comm matrices are spec-independent: the transfer pattern is frozen.
        nranks = self.nranks
        sel = kind == _ops.OP_XFER
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
        groups: list[dict[str, list[int]]] = [{} for _ in range(nranks)]
        for row, (r, kid) in enumerate(
            zip(a["obs_rank"].tolist(), a["obs_kind"].tolist())
        ):
            groups[r].setdefault(obs_kinds[kid], []).append(row)
        # Each group also keeps its recorded time, summed once: a replay
        # re-sums only the groups of kinds a target spec re-prices.
        obs_nbytes = a["obs_nbytes"]
        obs_seconds = a["obs_seconds"]
        self.obs_groups: list[dict[str, tuple[np.ndarray, int, int, float]]] = []
        for per in groups:
            compiled: dict[str, tuple[np.ndarray, int, int, float]] = {}
            for kname, idx in per.items():
                idx_a = np.asarray(idx)
                compiled[kname] = (
                    idx_a, len(idx), int(obs_nbytes[idx_a].sum()),
                    float(np.cumsum(obs_seconds[idx_a])[-1]),
                )
            self.obs_groups.append(compiled)
        # Per obs kind: its rows and its message sizes (unique + inverse),
        # what re-pricing a kind under a target spec reads.
        kind_col = a["obs_kind"]
        self.obs_rows: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        for kid, kname in enumerate(obs_kinds):
            rows = np.nonzero(kind_col == kid)[0]
            if rows.size:
                sizes, inverse = np.unique(obs_nbytes[rows], return_inverse=True)
                self.obs_rows.append((kname, rows, sizes, inverse))

    def same_spec(self, spec: MachineSpec) -> bool:
        if spec is self.recorded_spec:
            return True
        fields = dataclasses.asdict(spec)
        fields.pop("name")
        return fields == self._recorded_fields

    def costs_for(self, spec: MachineSpec) -> np.ndarray:
        a = self.trace.arrays
        return eval_costs(
            self.cost_index, a["c0"], a["c1"], a["c2"], a["d"], spec, self.nranks
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
    kind_l, chain_l, next_l = compiled.kind, compiled.chain, compiled.next
    a_l, b_l, c_l, c0_l, d_l = compiled.a, compiled.b, compiled.c, compiled.c0, compiled.d
    first = compiled.chain_first
    done = [False] * len(first)
    # Waitable id -> its count, and the gseqs of the WAITGE ops parked on it.
    count = [0] * compiled.nwait
    waiters: list[list[int] | None] = [None] * compiled.nwait

    # The fabric model NetFabric.transfer steps, under the target spec.
    nic_deliver = NicState(spec, nranks).deliver
    srq_pen = srq_penalty(spec, nranks)

    # Entries are (time, gseq of the op the chain resumes at, chain).
    heap = list(compiled.start_heap)
    push = heapq.heappush
    pop = heapq.heappop
    last = compiled.start_last
    deliver_miss = 0
    faults_active = faults is not None and getattr(faults, "active", False)

    OP_SLEEP = _ops.OP_SLEEP
    OP_CALL = _ops.OP_CALL
    OP_XFER = _ops.OP_XFER
    OP_ADD = _ops.OP_ADD
    OP_WAITGE = _ops.OP_WAITGE

    while heap:
        t, i, ch = pop(heap)
        if t > last:
            last = t
        t0 = t
        while i >= 0:
            k = kind_l[i]
            if k == OP_SLEEP:
                t += cost[i]
                i = next_l[i]
                continue
            if t != t0:
                # The chain's clock moved past the popped time: this op is
                # a fresh scheduling point — NIC/sync state must be touched
                # in global time order.
                push(heap, (t, i, ch))
                break
            if k == OP_ADD:
                w = a_l[i]
                count[w] += b_l[i]
                parked = waiters[w]
                if parked is not None:
                    waiters[w] = None
                    for wi in parked:
                        push(heap, (t, wi, chain_l[wi]))
            elif k == OP_WAITGE:
                w = a_l[i]
                if count[w] < b_l[i]:
                    parked = waiters[w]
                    if parked is None:
                        waiters[w] = [i]
                    else:
                        parked.append(i)
                    break
            elif k == OP_XFER:
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
                child = b_l[i]
                g = first[child]
                if g >= 0:
                    push(heap, (deliver, g, child))
                elif deliver > last:
                    last = deliver
            elif k == OP_CALL:
                child = a_l[i]
                start = t + cost[i]
                g = first[child]
                if g >= 0:
                    push(heap, (start, g, child))
                elif start > last:
                    last = start
            else:  # pragma: no cover - format invariant
                raise ReplayError(f"unknown op kind {k} at gseq {i}")
            i = next_l[i]
        else:
            done[ch] = True
            if t > last:
                last = t

    # Every non-daemon process chain must have drained (at the recorded
    # spec this mirrors the live run completing; elsewhere a stuck chain
    # means the frozen pattern is invalid under the target conditions).
    stuck = [cid for cid in compiled.proc_chains if not done[cid]]
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
    seconds = compiled.trace.arrays["obs_seconds"]
    warnings: list[str] = []
    repriced: set[str] = set()
    if not same_spec and compiled.obs_rows:
        seconds = seconds.copy()
        unrepriced = []
        for kname, rows, sizes, inverse in compiled.obs_rows:
            per_size = obs_prices(kname, sizes, spec, recorded, compiled.nranks)
            if per_size is None:
                unrepriced.append(kname)
            else:
                seconds[rows] = per_size[inverse]
                repriced.add(kname)
        if unrepriced:
            warnings.append(
                "per-op totals kept recorded values for span-measured kinds: "
                + ", ".join(sorted(unrepriced))
            )
    # Per-(rank, kind) cumulative sums over the precompiled record-order
    # index groups: the same left-to-right IEEE additions the live Metrics
    # registry performs, one C loop per group instead of a python row walk.
    # A kind this spec did not re-price keeps the group's recorded sum.
    per_rank: list[dict[str, dict[str, Any]]] = []
    for groups in compiled.obs_groups:
        per = {}
        for kname, (idx, calls, nbytes, recorded_time) in groups.items():
            per[kname] = {
                "calls": calls,
                "bytes": nbytes,
                "time": (
                    float(np.cumsum(seconds[idx])[-1]) if kname in repriced else recorded_time
                ),
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
