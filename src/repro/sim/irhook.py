"""Process-wide hook registry for `repro.ir` trace recording.

This module is the *only* coupling between the simulator core and the IR
recorder: hot paths (``Proc.sleep``, ``Engine.call_at``,
``NetFabric.transfer``, the sync primitives, ``Metrics.record``) guard on
the module global ``RECORDER`` — one attribute load plus one ``is None``
test when recording is off, mirroring the sanitizer/metrics cost
discipline. The sync primitives all record as counters, through
``on_add`` / ``on_wait_geq``. Priced sleeps and callbacks are annotated
with *why* they cost what they cost by :func:`repro.sim.costs.charge` (it
sets the recorder's ``pending_cost``, consumed by the next sleep /
``call_at`` hook), so replay can re-price them under a different
:class:`~repro.sim.network.MachineSpec`.

Cost symbols
------------
A cost annotation is ``(kind, c0, c1, c2)`` describing the IEEE-float
expression the live code is about to evaluate, with spec fields referenced
by index into :data:`COST_FIELDS`. The ``CK_*`` numbering and the
``COST_FIELDS`` order are the on-disk trace format; what each op kind's
expression *is* lives in :mod:`repro.sim.costs`. Unannotated sleeps are
``CK_LIT``: spec-independent by definition (``compute(seconds=)``,
timeouts), replayed verbatim.
"""

from __future__ import annotations

#: The active :class:`repro.ir.record.Recorder`, or None (recording off).
RECORDER = None

# -- cost expression kinds (evaluated by repro.sim.costs) -----------------
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
