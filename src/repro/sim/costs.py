"""The cost model: what every modelled operation costs, written once.

The paper's results are relative costs (Fig. 4's O(P) ``FLUSH_ALL``,
Fig. 5's send/recv-backed RMA, Fig. 3's SRQ penalty), so this module *is*
the result. It owns six things and nothing else decides a price:

* :data:`TABLE` — op kind -> cost expression, one row per runtime
  operation (``mpi.rput``, ``gasnet.am``, ...) or un-recorded helper
  charge (flush overhead, target delay, ack, handler dispatch, copy,
  flops). A row's variants are selected by the spec's *structure* flags
  (``mpi_rma_over_sendrecv``, ``mpi_eager_threshold``); SRQ is folded into
  ``CK_HANDLER`` itself.
* :data:`KINDS` — the op kinds a run records, declared once: TABLE's
  recorded rows plus :data:`SPANS`, the kinds recorded by timing a call.
  Every recording site and every ``repro.lint.protocol`` row that is not
  bookkeeping names one of them.
* two evaluators over the same ``CK_*`` expressions: scalar :func:`price`
  for the live run, vectorised :func:`eval_costs` for replay. They perform
  the same IEEE operations in the same order, so a replayed cost is
  bit-identical to what a live run under that spec charges.
* :class:`PricedTable` — the table under one run's ``(spec, nranks)``,
  which are fixed for the run: a row with no call-site operand is priced
  when the ``Cluster`` is built, not at every op.
* :func:`cost` / :func:`charge` / :func:`charge_in` — look the op up in the
  run's priced table, record it with the metrics handle and annotate it
  for the IR recorder; then hand the seconds back for a script to yield
  (``cost``), sleep them (``charge``) or schedule a callback after them
  (``charge_in``). A modelled cost cannot be slept without being annotated
  because there is no other way to price one.
* :class:`NicState` — the fabric's NIC-occupancy arithmetic, stepped by
  both ``NetFabric.transfer`` and ``repro.ir.replay``.

A cost expression is ``(ck, c0, c1, c2)``: ``ck`` one of the ``CK_*``
kinds of :mod:`repro.sim.irhook`, spec fields referenced by index into
``COST_FIELDS``. That tuple is what a trace stores per sleep/callback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.sim import irhook as _irhook
from repro.sim.irhook import (
    CK_ACK,
    CK_COPY,
    CK_FLOPS,
    CK_HANDLER,
    CK_MUL,
    CK_PARAM,
    CK_PARAM2,
    CK_PARAM2_COPY,
    CK_PARAM_COPY,
    COST_FIELDS,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import MachineSpec

# -- the table --------------------------------------------------------------

#: Call-site operands an expression template may reference.
N, A, B = "n", "a", "b"
_OPERANDS = (N, A, B)

#: How each CK_* kind reads, for the rendered table ({0}..{2} = c0..c2).
_CK_TEXT = {
    CK_PARAM: "{0}",
    CK_PARAM2: "{0} + {1}",
    CK_COPY: "{0} / mem_copy_bw",
    CK_PARAM_COPY: "{0} + {1} / mem_copy_bw",
    CK_PARAM2_COPY: "({0} + {1}) + {2} / mem_copy_bw",
    CK_FLOPS: "{0} / flops_per_sec",
    CK_MUL: "{1} * {0}",
    CK_ACK: "loopback_latency if node({0}) == node({1}) else latency",
    CK_HANDLER: "gasnet_handler_overhead (+ gasnet_srq_penalty when SRQ is active)",
}
#: Structure a CK_* kind branches on at evaluation time (under the target).
_CK_FLAG = {CK_ACK: "ranks_per_node", CK_HANDLER: "gasnet_srq_threshold"}


class Row(NamedTuple):
    """One op kind: its expression per structure variant.

    ``variants`` is ``((when, template), ...)``; the first whose ``when``
    holds is the expression. ``when`` names the structure flag:
    ``"mpi_rma_over_sendrecv"`` (set), ``"mpi_eager_threshold"`` (``nbytes``
    at or under it) or ``None`` (otherwise). A template is
    ``(ck, t0, t1, t2)`` with each ``t`` a ``COST_FIELDS`` name or one of
    the operands ``N``/``A``/``B``. No variant holding means the structure
    has no such cost.
    """

    variants: tuple
    recorded: bool  # charge() also records it as a metrics op of this kind
    paper: str  # where the paper discusses the mechanism


def _origin(field: str, *, pack: bool = False) -> tuple:
    """RMA initiation at the origin: send/recv-backed RMA (Fig. 5) adds its
    per-op extra; ``pack`` adds the datatype pack copy."""
    extra = "mpi_sendrecv_rma_extra"
    if pack:
        return (
            ("mpi_rma_over_sendrecv", (CK_PARAM2_COPY, field, extra, N)),
            (None, (CK_PARAM_COPY, field, N)),
        )
    return (
        ("mpi_rma_over_sendrecv", (CK_PARAM2, field, extra)),
        (None, (CK_PARAM, field)),
    )


def _eager_copy(field: str) -> tuple:
    """Two-sided overhead: eager messages also pay a bounce-buffer copy."""
    return (
        ("mpi_eager_threshold", (CK_PARAM_COPY, field, N)),
        (None, (CK_PARAM, field)),
    )


def _flat(ck: int, *operands) -> tuple:
    return ((None, (ck, *operands)),)


TABLE: dict[str, Row] = {
    # MPI-3 RMA origin costs (recorded per call).
    "mpi.rput": Row(_origin("mpi_rma_overhead"), True, "§2.2, Fig. 5"),
    "mpi.rget": Row(_origin("mpi_rma_overhead"), True, "§2.2, Fig. 5"),
    "mpi.accumulate": Row(_origin("mpi_atomic_overhead"), True, "§2.2, Fig. 5"),
    "mpi.put_runs": Row(_origin("mpi_rma_overhead", pack=True), True, "§3.1, Fig. 5"),
    "mpi.get_runs": Row(_origin("mpi_rma_overhead"), True, "§3.1, Fig. 5"),
    "mpi.rflush": Row(_flat(CK_PARAM, "mpi_flush_overhead"), True, "§5"),
    "mpi.rflush_all": Row(_flat(CK_PARAM, "mpi_flush_all_idle"), True, "§5"),
    # RMA helpers: the closed-form part of span-measured ops.
    "mpi.atomic_origin": Row(_origin("mpi_atomic_overhead"), False, "§2.2, Fig. 5"),
    "mpi.flush_overhead": Row(_flat(CK_PARAM, "mpi_flush_overhead"), False, "§2.2"),
    "mpi.flush_all.walk": Row(
        _flat(CK_MUL, "mpi_flush_all_per_target", A), False, "§3.4, Fig. 4"
    ),
    "mpi.flush_all.skip": Row(
        _flat(CK_PARAM, "mpi_flush_all_idle"), False, "§3.4, Fig. 4"
    ),
    "mpi.target_delay": Row(
        (("mpi_rma_over_sendrecv", (CK_PARAM, "mpi_match_overhead")),), False, "Fig. 5"
    ),
    # MPI two-sided.
    "mpi.send": Row(_eager_copy("mpi_p2p_overhead"), True, "§3.2"),
    "mpi.recv": Row(_flat(CK_PARAM, "mpi_p2p_overhead"), True, "§3.2"),
    "mpi.match": Row(_eager_copy("mpi_match_overhead"), False, "§3.2"),
    "mpi.coll_overhead": Row(_flat(CK_PARAM, "mpi_coll_overhead"), False, "§3.5"),
    # GASNet.
    "gasnet.am": Row(_flat(CK_PARAM, "gasnet_am_overhead"), True, "§2.1"),
    "gasnet.put": Row(_flat(CK_PARAM, "gasnet_put_overhead"), True, "§2.1"),
    "gasnet.get": Row(_flat(CK_PARAM, "gasnet_get_overhead"), True, "§2.1"),
    "gasnet.put_runs": Row(
        _flat(CK_PARAM_COPY, "gasnet_put_overhead", N), True, "§2.1"
    ),
    "gasnet.get_runs": Row(_flat(CK_PARAM, "gasnet_get_overhead"), True, "§2.1"),
    "gasnet.poll": Row(_flat(CK_PARAM, "gasnet_poll_overhead"), False, "§2.1"),
    "gasnet.handler": Row(_flat(CK_HANDLER), False, "§4.1, Fig. 3"),
    # Shared helpers.
    "ack": Row(_flat(CK_ACK, A, B), False, "§2.2"),
    "copy": Row(_flat(CK_COPY, N), False, "§3.5"),
    "flops": Row(_flat(CK_FLOPS, N), False, "§4"),
}


class Span(NamedTuple):
    """One op kind a run records by timing the call: its seconds are the
    virtual time the call took, so no TABLE row prices it."""

    measured: str  # what the span covers
    static: str  # the model ``--predict`` prices it with (lint.protocol.PRICE_MODELS)
    paper: str


_MPI_COLLS = ("barrier", "bcast", "reduce", "allreduce", "alltoall", "allgather")
_CAF_COLLS = ("barrier", "broadcast", "reduce", "allreduce", "alltoall", "allgather")

#: Span-measured op kinds: ``recorded_steps`` in repro.mpi, ``profile``
#: regions in repro.caf.
SPANS: dict[str, Span] = {
    "mpi.flush": Span("Window.flush: overhead, then the wait for the target's acks", "flush", "§2.2"),
    "mpi.flush_all": Span(
        "Window.flush_all after RMA: the O(P) walk, then the wait for every ack",
        "flush_all", "§3.4, Fig. 4",
    ),
    "mpi.flush_all.idle": Span(
        "Window.flush_all with no RMA since the last one: the walk skipped",
        "idle", "§3.4, Fig. 4",
    ),
    "mpi.fetch_op": Span("Window.get_accumulate / fetch_and_op: origin cost and round trip", "flush", "§2.2"),
    "mpi.cas": Span("Window.compare_and_swap: origin cost and round trip", "flush", "§2.2"),
    **{
        f"mpi.coll.{c}": Span(f"Comm.{c}: the whole collective, its messages included", "tree", "§3.5")
        for c in _MPI_COLLS
    },
    "caf.coarray_write": Span("Coarray.write / write_section: the blocking put", "put", "§3.3"),
    "caf.coarray_read": Span("Coarray.read / read_section: the blocking get", "get", "§3.3"),
    "caf.event_notify": Span(
        "EventArray.notify: the backend's notify (CAF-MPI flushes first)", "notify", "§3.4, Fig. 4"
    ),
    "caf.event_wait": Span("EventArray.wait: until the notifications are posted", "match", "§3.4"),
    **{
        f"caf.coll.{c}": Span(f"Image's blocking {c}: the team's collective", "tree", "§2.1")
        for c in _CAF_COLLS
    },
}

#: Every op kind a run records -> the model ``--predict`` prices it with: a
#: recorded TABLE row by itself (``table``), a span by its ``static`` model.
KINDS: dict[str, str] = {
    **{kind: "table" for kind, row in TABLE.items() if row.recorded},
    **{kind: span.static for kind, span in SPANS.items()},
}


def _compile(template: tuple) -> tuple:
    """``(constant expression, ((slot, operand index), ...))``."""
    expr = [template[0], 0, 0, 0]
    subs = []
    for slot, t in enumerate(template[1:], start=1):
        if t in _OPERANDS:
            subs.append((slot, _OPERANDS.index(t)))
        else:
            expr[slot] = COST_FIELDS.index(t)
    return tuple(expr), tuple(subs)


#: ``when`` -> does it hold for (structure spec, nbytes)? None always does.
_WHEN = {
    None: None,
    "mpi_rma_over_sendrecv": lambda s, n: s.mpi_rma_over_sendrecv,
    "mpi_eager_threshold": lambda s, n: n <= s.mpi_eager_threshold,
}
_COMPILED = {
    kind: tuple((_WHEN[when], *_compile(tpl)) for when, tpl in row.variants)
    for kind, row in TABLE.items()
}
_RECORDED = frozenset(kind for kind, row in TABLE.items() if row.recorded)


def expression(
    kind: str, structure: "MachineSpec", nbytes: int = 0, a: int = 0, b: int = 0
) -> tuple | None:
    """The ``(ck, c0, c1, c2)`` of one ``kind`` op under ``structure``'s
    flags, or None when that structure has no such cost."""
    for holds, expr, subs in _COMPILED[kind]:
        if holds is None or holds(structure, nbytes):
            if subs:
                out = list(expr)
                operands = (nbytes, a, b)
                for slot, which in subs:
                    out[slot] = operands[which]
                return tuple(out)
            return expr
    return None


# -- the two evaluators -------------------------------------------------------


def srq_penalty(spec: "MachineSpec", nranks: int) -> float:
    """Per-message target-side cost of GASNet's Shared Receive Queue
    (Fig. 3): charged on delivery and on handler dispatch when active."""
    return spec.gasnet_srq_penalty if spec.srq_active(nranks) else 0.0


def price(expr: tuple, spec: "MachineSpec", nranks: int) -> float:
    """Seconds of one cost expression under ``spec`` (the scalar twin of
    :func:`eval_costs`: same operations, same order)."""
    ck, c0, c1, c2 = expr
    if ck == CK_PARAM:
        return getattr(spec, COST_FIELDS[c0])
    if ck == CK_PARAM2:
        return getattr(spec, COST_FIELDS[c0]) + getattr(spec, COST_FIELDS[c1])
    if ck == CK_COPY:
        return c0 / spec.mem_copy_bw
    if ck == CK_PARAM_COPY:
        return getattr(spec, COST_FIELDS[c0]) + c1 / spec.mem_copy_bw
    if ck == CK_PARAM2_COPY:
        return (
            getattr(spec, COST_FIELDS[c0]) + getattr(spec, COST_FIELDS[c1])
        ) + c2 / spec.mem_copy_bw
    if ck == CK_FLOPS:
        return c0 / spec.flops_per_sec
    if ck == CK_MUL:
        return c1 * getattr(spec, COST_FIELDS[c0])
    if ck == CK_ACK:
        rpn = spec.ranks_per_node
        return spec.loopback_latency if c0 // rpn == c1 // rpn else spec.latency
    if ck == CK_HANDLER:
        return spec.gasnet_handler_overhead + srq_penalty(spec, nranks)
    raise ValueError(f"cost kind {ck} has no closed form")


def field_vector(spec: "MachineSpec") -> np.ndarray:
    return np.array([getattr(spec, f) for f in COST_FIELDS], dtype=np.float64)


def cost_index(ck: np.ndarray) -> dict[int, np.ndarray]:
    """The rows of each closed-form cost kind in the cost-kind column
    ``ck``: what :func:`eval_costs` prices, computed once per trace."""
    index = {}
    for kind in (
        CK_PARAM, CK_PARAM2, CK_COPY, CK_PARAM_COPY, CK_PARAM2_COPY,
        CK_FLOPS, CK_MUL, CK_ACK, CK_HANDLER,
    ):
        idx = np.nonzero(ck == kind)[0]
        if idx.size:
            index[kind] = idx
    return index


def eval_costs(
    index: dict[int, np.ndarray],
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    recorded: np.ndarray,
    spec: "MachineSpec",
    nranks: int,
) -> np.ndarray:
    """Evaluate every op's cost expression under ``spec`` (one pass per kind
    of :func:`cost_index`).

    ``CK_LIT`` rows (unannotated sleeps: literal ``compute(seconds=)``
    charges, timeouts) keep their ``recorded`` duration.
    """
    fv = field_vector(spec)
    out = recorded.astype(np.float64, copy=True)

    def field(col, idx):
        return fv[col[idx].astype(np.int64)]

    idx = index.get(CK_PARAM)
    if idx is not None:
        out[idx] = field(c0, idx)
    idx = index.get(CK_PARAM2)
    if idx is not None:
        out[idx] = field(c0, idx) + field(c1, idx)
    idx = index.get(CK_COPY)
    if idx is not None:
        out[idx] = c0[idx] / spec.mem_copy_bw
    idx = index.get(CK_PARAM_COPY)
    if idx is not None:
        out[idx] = field(c0, idx) + c1[idx] / spec.mem_copy_bw
    idx = index.get(CK_PARAM2_COPY)
    if idx is not None:
        out[idx] = (field(c0, idx) + field(c1, idx)) + c2[idx] / spec.mem_copy_bw
    idx = index.get(CK_FLOPS)
    if idx is not None:
        out[idx] = c0[idx] / spec.flops_per_sec
    idx = index.get(CK_MUL)
    if idx is not None:
        out[idx] = c1[idx] * field(c0, idx)
    idx = index.get(CK_ACK)
    if idx is not None:
        same = (c0[idx].astype(np.int64) // spec.ranks_per_node) == (
            c1[idx].astype(np.int64) // spec.ranks_per_node
        )
        out[idx] = np.where(same, spec.loopback_latency, spec.latency)
    idx = index.get(CK_HANDLER)
    if idx is not None:
        out[idx] = price((CK_HANDLER, 0, 0, 0), spec, nranks)
    return out


# -- one run's prices --------------------------------------------------------

#: Sizes one ``n``-reading kind remembers; a size past that is priced per call.
_MEMO_SIZES = 1024
_PER_CALL = object()


class PricedTable:
    """:data:`TABLE` under one run's ``(spec, nranks)``: kind ->
    ``(expression, seconds)``, as :func:`expression` and :func:`price` give
    them — this class only decides *when* they are called.

    A row that reads no call-site operand has one price for the whole run
    (its structure variant is selected here, once). A row that reads only
    ``n`` remembers the price of each size it has seen: a run sends few
    distinct sizes. A row that reads ``a``/``b`` (a group size, the two
    world ranks of an ``ack``) is priced per call: remembered, ``ack``
    alone would hold up to P^2 entries.
    """

    __slots__ = ("spec", "nranks", "_rows")

    def __init__(self, spec: "MachineSpec", nranks: int):
        self.spec = spec
        self.nranks = nranks
        #: kind -> its run-long ``(expr, seconds)`` (``None``: this structure
        #: has no such cost) | ``{n: (expr, seconds)}`` | ``_PER_CALL``.
        self._rows: dict = {}
        for kind, row in TABLE.items():
            reads = {t for _, template in row.variants for t in template[1:] if t in _OPERANDS}
            if any(when == "mpi_eager_threshold" for when, _ in row.variants):
                reads.add(N)
            if reads - {N}:
                self._rows[kind] = _PER_CALL
            elif reads:
                self._rows[kind] = {}
            else:
                self._rows[kind] = self._price(kind, 0, 0, 0)

    def __len__(self) -> int:
        """Prices held: fixed for the run plus sizes remembered so far."""
        return sum(len(row) if type(row) is dict else 1 for row in self._rows.values())

    def _price(self, kind: str, nbytes, a: int, b: int) -> tuple | None:
        expr = expression(kind, self.spec, nbytes, a, b)
        return None if expr is None else (expr, price(expr, self.spec, self.nranks))

    def priced(self, kind: str, nbytes=0, a: int = 0, b: int = 0) -> tuple | None:
        """``(expression, seconds)`` of one ``kind`` op, or None when the
        spec's structure has no such cost."""
        row = self._rows[kind]
        if type(row) is dict:
            hit = row.get(nbytes)
            if hit is None:
                hit = self._price(kind, nbytes, 0, 0)
                if len(row) < _MEMO_SIZES:
                    row[nbytes] = hit
            return hit
        if row is _PER_CALL:
            return self._price(kind, nbytes, a, b)
        return row


# -- charging -----------------------------------------------------------------


def cost(ctx, kind: str, nbytes: int = 0, a: int = 0, b: int = 0) -> float | None:
    """Price one ``kind`` op for ``ctx``'s process — record it (recorded
    kinds, when metrics are on) and annotate it for the IR recorder — and
    return the seconds the process must now sleep: ``yield`` them from a
    script, or :func:`charge` them. ``None`` (nothing to sleep, nothing
    annotated) when the spec's structure has no such cost.
    """
    priced = ctx.prices._rows[kind]  # a run-long row, or a size seen, is read in place
    if type(priced) is not tuple and (
        type(priced) is not dict or (priced := priced.get(nbytes)) is None
    ) and (priced := ctx.prices.priced(kind, nbytes, a, b)) is None:
        return None
    expr, seconds = priced
    if kind in _RECORDED:
        obs = ctx.metrics
        if obs is not None:
            obs.record(ctx.rank, kind, nbytes, seconds)
    rec = _irhook.RECORDER
    if rec is not None:
        rec.pending_cost = expr
    return seconds


def charge(
    ctx, kind: str, nbytes: int = 0, a: int = 0, b: int = 0, *, category: str | None = None
) -> None:
    """Make ``ctx``'s process pay one ``kind`` op now: :func:`cost`, slept.

    ``category`` attributes the sleep to a profiler region (compute).
    """
    seconds = cost(ctx, kind, nbytes, a, b)
    if seconds is None:
        return
    if category is None:
        ctx.proc.sleep(seconds)
    else:
        ctx.profiler.sleep_in(ctx.rank, ctx.proc, category, seconds)


def charge_in(ctx, kind: str, fn, nbytes: int = 0, a: int = 0, b: int = 0) -> None:
    """Run ``fn`` in scheduler context after one ``kind`` delay — at once
    when the spec's structure has no such delay."""
    priced = ctx.prices._rows[kind]  # a run-long row, or a size seen, is read in place
    if type(priced) is not tuple and (
        type(priced) is not dict or (priced := priced.get(nbytes)) is None
    ) and (priced := ctx.prices.priced(kind, nbytes, a, b)) is None:
        fn()
        return
    expr, seconds = priced
    engine = ctx.engine
    rec = _irhook.RECORDER
    if rec is not None:
        rec.pending_cost = expr
        rec.pending_delay = seconds  # what Engine.call_in hands the recorder
    engine.call_at(engine.now + seconds, fn)


# -- the NIC step ---------------------------------------------------------------


class NicState:
    """Injection/delivery clocks of every NIC plus per-pair FIFO order.

    One instance is one fabric's state; :meth:`deliver` is the whole
    network model (latency, serialization, per-message NIC occupancy at
    both ends, FIFO per ordered pair, NIC-free intra-node copies).
    """

    __slots__ = ("nranks", "tx_free", "rx_free", "pair_last", "_node", "_costs")

    def __init__(self, spec: "MachineSpec", nranks: int):
        self.nranks = nranks
        self.tx_free = [0.0] * nranks
        self.rx_free = [0.0] * nranks
        # Keyed by src * nranks + dst (int keys hash faster than tuples).
        self.pair_last: dict[int, float] = {}
        self._node = [r // spec.ranks_per_node for r in range(nranks)]
        self._costs = (
            spec.latency,
            spec.bandwidth,
            spec.header_bytes,
            spec.tx_msg_overhead,
            spec.rx_msg_overhead,
            spec.loopback_latency,
            spec.mem_copy_bw,
        )

    def deliver(
        self, src: int, dst: int, nbytes: int, now: float, rx_extra: float
    ) -> float:
        """Delivery time of ``nbytes`` injected at ``now``; advances the clocks.

        ``rx_extra`` is extra per-message occupancy at the destination NIC
        (the SRQ slowdown that throttles incast at scale, Fig. 3).
        """
        latency, bandwidth, header, tx_oh, rx_oh, loopback, copy_bw = self._costs
        node = self._node
        if node[src] == node[dst]:
            # Intra-node: shared-memory copy, no NIC involvement.
            deliver = now + loopback + nbytes / copy_bw
        else:
            ser = (nbytes + header) / bandwidth
            tx_free = self.tx_free[src]
            depart = now if now > tx_free else tx_free
            # NICs have a message-rate limit independent of bandwidth: each
            # message occupies the NIC for a fixed overhead plus its wire
            # time. This is what punishes unscheduled incast (the naive
            # all-to-all) as the process count grows.
            self.tx_free[src] = depart + ser + tx_oh
            head_arrive = depart + latency
            rx_free = self.rx_free[dst]
            deliver = (
                (head_arrive if head_arrive > rx_free else rx_free)
                + ser
                + rx_oh
                + rx_extra
            )
            self.rx_free[dst] = deliver
        # FIFO per ordered pair: MPI's non-overtaking rule and GASNet AM
        # ordering rely on it.
        pair = src * self.nranks + dst
        last = self.pair_last.get(pair, 0.0)
        if deliver < last:
            deliver = last
        self.pair_last[pair] = deliver
        return deliver


# -- the rendered table (docs/architecture.md embeds it; a test compares) ------


def render_table() -> str:
    """The cost table as markdown: kind, expression, selecting flag, paper;
    then the span-measured kinds, each with what its span covers."""
    lines = [
        "| op kind | recorded | expression | selected by | paper |",
        "|---|---|---|---|---|",
    ]
    for kind, row in TABLE.items():
        exprs, flags = [], []
        for when, (ck, *ts) in row.variants:
            text = _CK_TEXT[ck].format(*ts)
            if when == "mpi_eager_threshold":
                text += " (nbytes <= threshold)"
            elif when is not None:
                text += " (set)"
            elif len(row.variants) > 1:
                text += " (otherwise)"
            exprs.append(f"`{text}`")
            for flag in (when, _CK_FLAG.get(ck)):
                if flag is not None and flag not in flags:
                    flags.append(flag)
        lines.append(
            f"| `{kind}` | {'yes' if row.recorded else 'helper'} | "
            f"{'<br>'.join(exprs)} | "
            f"{', '.join(f'`{f}`' for f in flags) or '—'} | {row.paper} |"
        )
    for kind, span in SPANS.items():
        lines.append(f"| `{kind}` | span | {span.measured} | — | {span.paper} |")
    return "\n".join(lines)
