"""Machine description and the shared network fabric.

:class:`MachineSpec` collects every modeled cost knob for a platform: wire
latency/bandwidth, per-operation software overheads of the MPI and GASNet
stacks, behavioural switches (Cray-style send/recv-backed RMA, MPICH's
linear ``MPI_WIN_FLUSH_ALL``, GASNet's SRQ), the floating-point rate used to
convert flop counts into virtual compute time, and the runtime memory
model. Platform instances calibrated from the paper's own microbenchmarks
live in :mod:`repro.platforms`.

:class:`NetFabric` moves bytes between ranks with per-NIC injection and
delivery serialization, which is what makes naive all-at-once all-to-alls
(CAF-GASNet's hand-rolled collective) suffer incast contention while
schedule-aware algorithms (MPI's pairwise exchange) do not.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim import irhook as _irhook
from repro.sim.costs import NicState
from repro.sim.engine import Engine
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.faults import FaultPlan
    from repro.sim.reliable import ReliableTransport


@dataclass(frozen=True)
class MachineSpec:
    """Modeled cost parameters of one experimental platform."""

    name: str

    # --- fabric -------------------------------------------------------
    latency: float = 1.5e-6  # one-way inter-node wire latency (s)
    bandwidth: float = 3.2e9  # NIC injection/delivery bandwidth (B/s)
    header_bytes: int = 64  # per-message wire header
    tx_msg_overhead: float = 0.1e-6  # per-message NIC injection occupancy (s)
    rx_msg_overhead: float = 0.2e-6  # per-message NIC delivery occupancy (s)
    loopback_latency: float = 3.0e-7  # same-node message latency (s)
    ranks_per_node: int = 8

    # --- CPU ------------------------------------------------------------
    flops_per_sec: float = 8.0e9  # per-core double-precision rate
    mem_copy_bw: float = 6.0e9  # memcpy bandwidth for buffering (B/s)

    # --- MPI software costs (seconds per operation) ---------------------
    mpi_p2p_overhead: float = 0.6e-6  # send/isend/recv initiation (origin)
    mpi_match_overhead: float = 0.2e-6  # target-side match per message
    mpi_rma_overhead: float = 1.2e-6  # PUT/GET initiation
    mpi_atomic_overhead: float = 1.4e-6  # ACCUMULATE/FETCH_AND_OP/CAS
    mpi_flush_overhead: float = 0.8e-6  # FLUSH to one target
    mpi_flush_all_per_target: float = 0.4e-6  # MPICH: FLUSH_ALL walks every rank
    mpi_flush_all_idle: float = 0.2e-6  # FLUSH_ALL with no epoch activity
    mpi_coll_overhead: float = 0.8e-6  # per collective call setup
    mpi_eager_threshold: int = 8192  # bytes; above this, rendezvous
    mpi_rma_over_sendrecv: bool = False  # Cray MPI implements RMA over send/recv
    mpi_sendrecv_rma_extra: float = 2.0e-6  # extra per-op cost in that mode

    # --- GASNet software costs ------------------------------------------
    gasnet_put_overhead: float = 0.5e-6
    gasnet_get_overhead: float = 0.5e-6
    gasnet_am_overhead: float = 0.5e-6  # AM request injection (origin)
    gasnet_handler_overhead: float = 0.4e-6  # target-side AM handler dispatch
    gasnet_poll_overhead: float = 0.1e-6  # one gasnet_AMPoll() pass
    gasnet_srq_threshold: int | None = 128  # SRQ enabled at >= this many procs
    gasnet_srq_penalty: float = 6.0e-6  # extra target-side per-message cost w/ SRQ
    gasnet_am_credits: int | None = 64  # outstanding AM requests per peer
    # How CAF-GASNet's hand-rolled alltoall/allgather signal completion:
    # "put" = RDMA flag writes the receiver spins on (ibv/aries conduits),
    # "am"  = short Active Messages (pami conduit; pays handler dispatch).
    gasnet_coll_signal: str = "put"

    # --- runtime memory model (MB), Figure 1 -----------------------------
    mpi_mem_base_mb: float = 106.5
    mpi_mem_per_rank_mb: float = 0.033  # eager buffers + metadata per peer
    gasnet_mem_base_mb: float = 13.0
    gasnet_mem_log_mb: float = 3.25  # per log2(P) segment metadata growth
    gasnet_mem_nosrq_per_rank_mb: float = 0.05  # per-peer recv buffers w/o SRQ

    def with_overrides(self, **kwargs: Any) -> "MachineSpec":
        """Return a copy with the given fields replaced (for ablations)."""
        return dataclasses.replace(self, **kwargs)

    def flops_time(self, flops: float) -> float:
        return flops / self.flops_per_sec

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def srq_active(self, nranks: int) -> bool:
        return (
            self.gasnet_srq_threshold is not None
            and nranks >= self.gasnet_srq_threshold
        )


class NetFabric:
    """Point-to-point byte transport with NIC serialization at both ends.

    ``transfer`` is asynchronous: the caller charges its own software
    overhead separately (via ``proc.sleep``), and ``on_delivered`` runs in
    scheduler context at the modeled delivery time.
    """

    def __init__(self, engine: Engine, nranks: int, spec: MachineSpec, tracer=None):
        self.engine = engine
        self.nranks = nranks
        self.spec = spec
        self.tracer = tracer
        #: The timing model's whole state; replay steps the same class.
        self.nic = NicState(spec, nranks)
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`repro.sim.faults.FaultPlan` consulted once per
        #: transfer. None (the default) skips fault logic entirely, so a
        #: fault-free run is byte-identical with or without this feature.
        self.faults: FaultPlan | None = None
        #: Optional :class:`repro.sim.reliable.ReliableTransport`; installed
        #: by ``Cluster(reliable=True)`` and used by :meth:`send`.
        self.reliable: ReliableTransport | None = None
        # Fault counters (what the plan actually did to this fabric's traffic).
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        self.delayed = 0
        #: Ranks whose node has crashed. Shared (same set object) with
        #: ``Cluster.failed_ranks``: a dead NIC neither transmits nor
        #: delivers, so frames touching a dead rank are blackholed.
        self.failed_ranks: set[int] = set()
        self.blackholed = 0
        #: Attached by ``Cluster(sanitize=True)``: the checker counts every
        #: transfer it watched (a coverage figure for its reports).
        self.sanitizer = None
        #: Attached by ``Cluster(metrics=True)``: per-(src, dst) traffic
        #: accounting (:class:`repro.obs.metrics.CommMatrix`). One predicate
        #: guard per transfer; None keeps the hot path untouched.
        self.comm_matrix = None
        #: Whether a transfer runs its hooks (:meth:`_fix_hooks`).
        self._hooked = True

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise SimulationError(f"rank {rank} out of range [0, {self.nranks})")

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
        *,
        rx_extra: float = 0.0,
    ) -> float:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the delivery time.

        ``rx_extra`` adds per-message occupancy at the destination NIC
        (seconds) — used to model GASNet's Shared Receive Queue slowdown,
        which throttles incast throughput at scale (paper Figure 3).

        When a :class:`~repro.sim.faults.FaultPlan` is installed the message
        may be dropped or corrupted (callback never runs; returns ``inf``),
        duplicated (callback runs twice) or delayed past the FIFO order.
        """
        nranks = self.nranks
        if not (0 <= src < nranks and 0 <= dst < nranks):
            self._check_rank(src)
            self._check_rank(dst)
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        if rx_extra < 0:
            raise SimulationError(f"negative rx_extra {rx_extra!r}")
        engine = self.engine
        if engine._finished:
            raise SimulationError(
                f"transfer({src}->{dst}) on a fabric whose engine has finished"
            )
        if self.failed_ranks and (src in self.failed_ranks or dst in self.failed_ranks):
            # A crashed node's NIC is silent: in-flight and future frames
            # touching it vanish. This is what leaves a retransmitting
            # survivor hanging — the case the engine watchdog exists for.
            self.blackholed += 1
            return math.inf
        now = engine.now
        self.messages_sent += 1
        self.bytes_sent += nbytes
        deliver = self.nic.deliver(src, dst, nbytes, now, rx_extra)
        if self._hooked:
            return self._hooked_transfer(src, dst, nbytes, rx_extra, now, deliver, on_delivered)
        engine.call_at(deliver, on_delivered)
        return deliver

    def _fix_hooks(self) -> None:
        """Decide, once for the coming run, whether :meth:`transfer` has a
        hook to run — a fault plan, the sanitizer's count, the comm matrix,
        the IR recorder, an enabled tracer — the way ``Engine.run`` fixes
        ``Engine._observed``. ``Cluster.run`` calls it once everything the
        run arms is attached; a fabric never fixed runs every hook test."""
        self._hooked = (
            self.faults is not None
            or self.sanitizer is not None
            or self.comm_matrix is not None
            or _irhook.RECORDER is not None
            or (self.tracer is not None and self.tracer.enabled)
        )

    def _hooked_transfer(
        self, src: int, dst: int, nbytes: int, rx_extra: float, now: float,
        deliver: float, on_delivered: Callable[[], None],
    ) -> float:
        """The rest of :meth:`transfer` when a hook may be armed."""
        engine = self.engine
        if self.sanitizer is not None:
            self.sanitizer.stats["transfers"] += 1
        if self.comm_matrix is not None:
            self.comm_matrix.record(src, dst, nbytes)

        decision = None
        if self.faults is not None and self.faults.active:
            decision = self.faults.draw(src, dst, nbytes)
            if decision.discard:
                # The frame burned wire and NIC time but never arrives; a
                # corrupt frame is one a checksummed link detects and
                # discards at the receiver (payloads are never silently
                # damaged — see repro.sim.faults).
                if decision.corrupt:
                    self.corrupted += 1
                else:
                    self.dropped += 1
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.record(
                        "transfer", src, now, deliver, dst=dst, nbytes=nbytes,
                        fault="corrupt" if decision.corrupt else "drop",
                    )
                return math.inf
            if decision.extra_delay > 0.0:
                # Added after the FIFO clamp on purpose: later messages can
                # overtake this one, producing genuine reordering.
                self.delayed += 1
                deliver += decision.extra_delay

        rec = _irhook.RECORDER
        if rec is not None:
            # Records the transfer op (issuer chain, NIC-state re-pricing
            # inputs) and rebinds the delivery callback to its own chain;
            # the call_at below then sees an already-chained thunk.
            on_delivered = rec.on_transfer(
                src, dst, nbytes, rx_extra, deliver, on_delivered
            )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record("transfer", src, now, deliver, dst=dst, nbytes=nbytes)
        engine.call_at(deliver, on_delivered)
        if decision is not None and decision.duplicate:
            self.duplicated += 1
            engine.call_at(deliver + decision.duplicate_lag, on_delivered)
        return deliver

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
        *,
        rx_extra: float = 0.0,
    ) -> float:
        """Transfer, via the reliable transport when one is installed.

        Communication layers send everything that must survive injected
        faults through here; with no transport installed (the default:
        ``Cluster(reliable=False)``) this is a plain :meth:`transfer`.
        """
        if self.reliable is not None:
            return self.reliable.send(
                src, dst, nbytes, on_delivered, rx_extra=rx_extra
            )
        return self.transfer(src, dst, nbytes, on_delivered, rx_extra=rx_extra)
