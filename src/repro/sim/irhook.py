"""Process-wide hook registry for `repro.ir` trace recording.

This module is the *only* coupling between the simulator core and the IR
recorder: hot paths (``Proc.sleep``, ``Engine.call_at``,
``NetFabric.transfer``, the sync primitives, ``Metrics.record``) guard on
the module global ``RECORDER`` — one attribute load plus one ``is None``
test when recording is off, mirroring the sanitizer/metrics cost
discipline — and annotation sites declare *why* a sleep costs what it
costs via :func:`annotate` so replay can re-price it under a different
:class:`~repro.sim.network.MachineSpec`.

Cost symbols
------------
A cost annotation is ``(kind, c0, c1, c2)`` describing the IEEE-float
expression the live code is about to evaluate, with spec fields referenced
by index into :data:`COST_FIELDS`. Replay re-evaluates the same expression
(same operations, same order) against the target spec, so re-priced sleeps
are bit-identical to what a live run under that spec would charge.
Unannotated sleeps fall back to ``CK_LIT`` — the recorded duration is
replayed verbatim, which keeps same-spec calibration exact by
construction and degrades gracefully (documented in ``docs/ir.md``) for
cross-spec sweeps.
"""

from __future__ import annotations

#: The active :class:`repro.ir.record.Recorder`, or None (recording off).
RECORDER = None

# -- cost expression kinds (see repro.ir.costs.eval_costs) ---------------
CK_LIT = 0  # recorded duration, replayed verbatim
CK_PARAM = 1  # spec.<field c0>
CK_PARAM2 = 2  # spec.<field c0> + spec.<field c1>
CK_COPY = 3  # c0 / spec.mem_copy_bw
CK_PARAM_COPY = 4  # spec.<field c0> + c1 / spec.mem_copy_bw
CK_PARAM2_COPY = 5  # (spec.<field c0> + spec.<field c1>) + c2 / spec.mem_copy_bw
CK_FLOPS = 6  # c0 / spec.flops_per_sec
CK_MUL = 7  # c1 * spec.<field c0>
CK_ACK = 8  # spec.loopback_latency if same node(c0, c1) else spec.latency
CK_HANDLER = 9  # spec.gasnet_handler_overhead (+ srq penalty when active)

#: Spec fields addressable from CK_PARAM-family annotations. Order is part
#: of the trace format (the manifest embeds this table); append only.
COST_FIELDS = (
    "latency",
    "loopback_latency",
    "mpi_p2p_overhead",
    "mpi_match_overhead",
    "mpi_rma_overhead",
    "mpi_atomic_overhead",
    "mpi_flush_overhead",
    "mpi_flush_all_per_target",
    "mpi_flush_all_idle",
    "mpi_coll_overhead",
    "mpi_sendrecv_rma_extra",
    "gasnet_put_overhead",
    "gasnet_get_overhead",
    "gasnet_am_overhead",
    "gasnet_handler_overhead",
    "gasnet_poll_overhead",
    "gasnet_srq_penalty",
)

# Index constants for annotation sites (F_<FIELD> = COST_FIELDS.index).
F_LATENCY = 0
F_LOOPBACK = 1
F_MPI_P2P = 2
F_MPI_MATCH = 3
F_MPI_RMA = 4
F_MPI_ATOMIC = 5
F_MPI_FLUSH = 6
F_MPI_FLUSH_ALL_PER_TARGET = 7
F_MPI_FLUSH_ALL_IDLE = 8
F_MPI_COLL = 9
F_MPI_SENDRECV_EXTRA = 10
F_GASNET_PUT = 11
F_GASNET_GET = 12
F_GASNET_AM = 13
F_GASNET_HANDLER = 14
F_GASNET_POLL = 15
F_GASNET_SRQ_PENALTY = 16


def annotate(kind: int, c0: float = 0.0, c1: float = 0.0, c2: float = 0.0) -> None:
    """Declare the cost expression of the *next* recorded sleep/callback.

    A no-op when recording is off. The pending annotation is consumed by
    the next ``Proc.sleep`` or ``Engine.call_at`` hook (they always
    directly follow the annotation at every instrumented site) and dropped
    otherwise.
    """
    rec = RECORDER
    if rec is not None:
        rec.pending_cost = (kind, c0, c1, c2)


class CbThunk:
    """A scheduled callback bound to its recorded IR chain.

    Wrapping happens at record time (``Engine.call_at`` /
    ``NetFabric.transfer`` hooks); ``__call__`` brackets the original
    callback so any ops it records attribute to the right chain.
    """

    __slots__ = ("rec", "chain", "fn")

    def __init__(self, rec, chain: int, fn):
        self.rec = rec
        self.chain = chain
        self.fn = fn

    def __call__(self) -> None:
        rec = self.rec
        prev = rec.current_cb
        rec.current_cb = self.chain
        try:
            self.fn()
        finally:
            rec.current_cb = prev
