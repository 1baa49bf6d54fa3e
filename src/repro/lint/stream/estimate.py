"""Static communication-cost estimation from compiled op streams.

Evaluates an entry point's per-rank symbolic streams — with the entry's
parameters bound to concrete values — into the same aggregates the obs
layer measures at runtime: per-op-kind call counts and byte totals, a
P×P communication matrix, and (via :func:`static_op_seconds` against a
:class:`MachineSpec`) an order-of-magnitude seconds preview. All of it
before any run.

Validation against a recorded trace (:func:`compare_to_trace`) matches
kinds as they are: a stream op's kind is the kind the runtime records (a
CAF ``write_async`` is the ``mpi.rput`` it lowers to, §3.3) — and compares
call counts (expected exact for deterministic apps) and bytes
(tolerance documented per app: RandomAccess's data-dependent bucket
sizes are modeled by the mask-half expected value, everything else is
exact).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ir.costs import obs_formula
from repro.sim.costs import KINDS, expression, price

from ..model import build_model
from .interp import EntryStreams, StreamCompiler

# -- static (pre-run) pricing ---------------------------------------------
#
# The stream compiler predicts op streams before any run, so there is no
# recorded baseline to branch on: the spec being priced *is* the structure.
# Kinds the cost table records reuse obs_formula with recorded == target;
# a span-measured kind is priced by the first-order model costs.KINDS names
# for it (protocol.PRICE_MODELS says what each reads) — a log2(P) tree for
# collectives, initiation + wire cost for one-sided traffic. These are
# coarse by design: the estimator's validated quantities are call counts
# and bytes, with seconds reported as an order-of-magnitude preview.


def static_op_seconds(kind: str, nbytes: np.ndarray, spec: Any, nranks: int) -> np.ndarray:
    """Predicted per-call seconds of ``kind`` ops, one of the recorded
    kinds :data:`repro.sim.costs.KINDS` declares (``ValueError`` otherwise).
    """
    if kind not in KINDS:
        raise ValueError(
            f"{kind!r} is not an op kind a run records (repro.sim.costs.KINDS): "
            "it has no static price"
        )
    nb = np.asarray(nbytes, dtype=np.float64)
    known = obs_formula(kind, np.asarray(nbytes), spec, spec, nranks)
    if known is not None:
        return known

    def table(row: str, a: int = 0) -> float:
        return price(expression(row, spec, a=a), spec, nranks)

    def flat(seconds: float) -> np.ndarray:
        return np.full(nb.shape, seconds)

    models = {  # one formula per protocol.PRICE_MODELS entry ("table" is above)
        "tree": lambda: table("mpi.coll_overhead")
        + max(np.log2(max(nranks, 2)), 1.0) * (spec.latency + nb / spec.bandwidth),
        "put": lambda: spec.mpi_rma_overhead + nb / spec.bandwidth,
        "get": lambda: spec.mpi_rma_overhead + 2 * spec.latency + nb / spec.bandwidth,
        "notify": lambda: flat(spec.mpi_rma_overhead + spec.latency),
        "match": lambda: flat(spec.mpi_match_overhead),
        "flush": lambda: flat(table("mpi.flush_overhead")),
        "flush_all": lambda: flat(
            table("mpi.flush_all.skip") + table("mpi.flush_all.walk", nranks)
        ),
        "idle": lambda: flat(table("mpi.flush_all.skip")),
    }
    return models[KINDS[kind]]()


@dataclass
class KindTotal:
    calls: int = 0
    nbytes: int = 0
    unknown_bytes: int = 0  # calls whose payload size stayed symbolic
    seconds: float = 0.0


@dataclass
class StaticPrediction:
    """Pre-run communication prediction for one entry point."""

    qualname: str
    path: str
    nranks: int
    by_kind: dict[str, KindTotal] = field(default_factory=dict)
    comm_matrix: np.ndarray | None = None  # (P, P) bytes, origin × target
    warnings: set[str] = field(default_factory=set)
    aborted: list[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(k.nbytes for k in self.by_kind.values())

    @property
    def total_calls(self) -> int:
        return sum(k.calls for k in self.by_kind.values())

    @property
    def total_seconds(self) -> float:
        return sum(k.seconds for k in self.by_kind.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "entry": self.qualname,
            "path": self.path,
            "nranks": self.nranks,
            "total_bytes": self.total_bytes,
            "total_calls": self.total_calls,
            "predicted_seconds": self.total_seconds,
            "by_kind": {
                kind: {
                    "calls": t.calls,
                    "nbytes": t.nbytes,
                    "unknown_bytes": t.unknown_bytes,
                    "seconds": t.seconds,
                }
                for kind, t in sorted(self.by_kind.items())
            },
            "comm_matrix": (
                self.comm_matrix.tolist() if self.comm_matrix is not None else None
            ),
            "warnings": sorted(self.warnings),
            "aborted": list(self.aborted),
        }


def predict_entry(
    entry: EntryStreams, spec: Any | None = None
) -> StaticPrediction:
    """Aggregate one entry's per-rank streams into a prediction."""
    pred = StaticPrediction(
        qualname=entry.qualname, path=entry.path, nranks=entry.nranks
    )
    matrix = np.zeros((entry.nranks, entry.nranks), dtype=np.int64)
    per_kind_bytes: dict[str, list[int]] = {}
    for rs in entry.ranks:
        pred.warnings |= rs.warnings
        if rs.aborted:
            pred.aborted.append(f"rank{rs.rank}:{rs.aborted}")
        for op in rs.ops:
            if op.kind not in KINDS:  # bookkeeping: the run records no op
                continue
            total = pred.by_kind.setdefault(op.kind, KindTotal())
            total.calls += 1
            if op.nbytes is not None:
                total.nbytes += op.nbytes
                per_kind_bytes.setdefault(op.kind, []).append(op.nbytes)
            else:
                total.unknown_bytes += 1
                per_kind_bytes.setdefault(op.kind, []).append(0)
            if op.peer is not None and 0 <= op.peer < entry.nranks and op.nbytes:
                matrix[op.rank, op.peer] += op.nbytes
    pred.comm_matrix = matrix
    if spec is not None:
        for kind, sizes in per_kind_bytes.items():
            seconds = static_op_seconds(
                kind, np.asarray(sizes, dtype=np.int64), spec, entry.nranks
            )
            pred.by_kind[kind].seconds = float(np.sum(seconds))
    return pred


def predict_file(
    path: str | pathlib.Path,
    *,
    entry: str | None = None,
    nranks: int = 4,
    bindings: dict[str, Any] | None = None,
    spec: Any | None = None,
    step_budget: int = 2_000_000,
) -> list[StaticPrediction]:
    """Compile ``path`` and predict every entry (or just ``entry``)."""
    source = pathlib.Path(path).read_text()
    model = build_model(ast.parse(source), str(path))
    compiler = StreamCompiler(
        model,
        nranks=nranks,
        loop_cap=None,  # estimation must not clamp trip counts
        step_budget=step_budget,
        bindings=bindings,
    )
    out = []
    for streams in compiler.compile().entries:
        if entry is not None and streams.qualname != entry:
            continue
        out.append(predict_entry(streams, spec=spec))
    return out


@dataclass
class KindComparison:
    kind: str
    static_calls: int
    recorded_calls: int
    static_bytes: int
    recorded_bytes: int

    @property
    def calls_exact(self) -> bool:
        return self.static_calls == self.recorded_calls


@dataclass
class TraceComparison:
    per_kind: list[KindComparison]
    static_total_bytes: int
    recorded_total_bytes: int

    @property
    def total_bytes_rel_err(self) -> float:
        if self.recorded_total_bytes == 0:
            return 0.0 if self.static_total_bytes == 0 else float("inf")
        return (
            abs(self.static_total_bytes - self.recorded_total_bytes)
            / self.recorded_total_bytes
        )


def compare_to_trace(pred: StaticPrediction, trace: Any) -> TraceComparison:
    """Compare a prediction to a recorded trace's obs side table.

    Only kinds the static stream emits are compared — the recorder also
    logs backend-internal kinds (AM handler spans, flush waits) with no
    static counterpart.
    """
    kinds = list(trace.manifest.get("obs_kinds", []))
    obs_kind = trace.arrays["obs_kind"]
    obs_nbytes = trace.arrays["obs_nbytes"]
    recorded: dict[str, tuple[int, int]] = {}
    for idx, kind in enumerate(kinds):
        sel = obs_kind == idx
        recorded[kind] = (int(np.sum(sel)), int(np.sum(obs_nbytes[sel])))

    per_kind = []
    static_total = 0
    recorded_total = 0
    for kind, total in sorted(pred.by_kind.items()):
        r_calls, r_bytes = recorded.get(kind, (0, 0))
        per_kind.append(
            KindComparison(
                kind=kind,
                static_calls=total.calls,
                recorded_calls=r_calls,
                static_bytes=total.nbytes,
                recorded_bytes=r_bytes,
            )
        )
        static_total += total.nbytes
        recorded_total += r_bytes
    return TraceComparison(
        per_kind=per_kind,
        static_total_bytes=static_total,
        recorded_total_bytes=recorded_total,
    )
