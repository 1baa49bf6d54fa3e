"""Reliable delivery over a faulty fabric: ack / timeout / retransmit.

The fabric's fault plan may drop, corrupt, duplicate or reorder messages
(:mod:`repro.sim.faults`). :class:`ReliableTransport` restores exactly-once
delivery on top of it, the way every reliable link layer does:

* each (src, dst) pair carries a monotone **sequence number** per message;
* the receiver tracks delivered sequence numbers as a cumulative low-water
  mark plus a small out-of-order set (compacted as gaps fill, so state
  stays O(reordering window) instead of growing with every message) and
  silently discards duplicates (fabric-injected or retransmission-induced);
* every arrival is **acknowledged** with a small message (acks ride the
  same faulty fabric and can themselves be lost);
* the sender retransmits on a virtual-time timeout with **exponential
  backoff plus seeded jitter** (desynchronizing retry storms while keeping
  the run deterministic), giving up after ``max_retries``: a peer that
  never acks is presumed dead, and the transport reports it through
  :attr:`ReliableTransport.on_give_up` so the failure-notification layer
  can mark the rank failed (the same ``ImageFailedError`` path an injected
  crash takes) instead of the run hanging in silent retries forever.

The transport is installed on the fabric by ``Cluster(reliable=True)`` and
carries everything the layers hand to ``fabric.send``; with no transport
installed those calls are plain transfers, keeping the default path
untouched.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import NetFabric


class ReliableTransport:
    """Per-fabric reliable-delivery state and counters."""

    #: Modeled wire overhead of the sequence-number header on data frames.
    HEADER_BYTES = 12
    #: Modeled size of an acknowledgement frame.
    ACK_BYTES = 16

    def __init__(
        self,
        fabric: "NetFabric",
        *,
        base_timeout: float = 100e-6,
        backoff: float = 2.0,
        max_retries: int = 10,
        jitter: float = 0.25,
        rng=None,
    ):
        self.fabric = fabric
        self.base_timeout = base_timeout
        self.backoff = backoff
        self.max_retries = max_retries
        #: Fractional retry-timeout jitter: each interval is scaled by a
        #: uniform draw from [1 - jitter, 1 + jitter]. Zero (or no rng)
        #: restores pure exponential backoff.
        self.jitter = jitter
        self._rng = rng
        #: Called as ``on_give_up(src, dst)`` when ``max_retries``
        #: retransmissions to ``dst`` all went unacknowledged. The cluster
        #: installs a hook that declares ``dst`` failed.
        self.on_give_up: Callable[[int, int], None] | None = None
        self._next_seq: dict[tuple[int, int], int] = {}
        # Per-pair [low_water, out_of_order]: every seq <= low_water was
        # delivered; out_of_order holds delivered seqs above the mark.
        self._delivered: dict[tuple[int, int], list] = {}
        # -- counters (the ablation's "measured retry overhead") ----------
        self.sends = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.duplicates_filtered = 0
        self.gave_up = 0

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
        *,
        rx_extra: float = 0.0,
    ) -> float:
        """Deliver ``on_delivered`` exactly once at ``dst``, retrying as needed.

        Returns ``inf``: unlike a raw transfer, the eventual delivery time
        is unknowable at send time.
        """
        fabric = self.fabric
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        self.sends += 1
        wire = nbytes + self.HEADER_BYTES
        # Scale the first timeout with the frame's own serialization so
        # large payloads are not declared lost while still on the wire.
        ser = (wire + fabric.spec.header_bytes) / fabric.spec.bandwidth
        timeout0 = self.base_timeout + 4.0 * ser
        _Send(self, pair, seq, wire, timeout0, on_delivered, rx_extra).attempt()
        return math.inf


@dataclass(slots=True, eq=False)
class _Send:
    """One message on a :class:`ReliableTransport`: its attempts, its retry
    timer and its ack. Methods rather than closures, so a retry that
    reschedules itself is no reference cycle."""

    transport: ReliableTransport
    pair: tuple[int, int]
    seq: int
    wire: int
    timeout0: float
    on_delivered: Callable[[], None]
    rx_extra: float
    acked: bool = False
    attempts: int = 0
    #: Ticket of the pending retry timer (``Engine.call_in``), if any.
    timer: int | None = None

    def on_ack(self) -> None:
        self.acked = True
        if self.timer is not None:
            # Acked: the retry timer guards nothing now, so it must not hold
            # the clock or count as an event.
            self.transport.fabric.engine.cancel(self.timer)
            self.timer = None

    def deliver(self) -> None:
        t = self.transport
        seq = self.seq
        seen = t._delivered.setdefault(self.pair, [-1, set()])
        pending = seen[1]
        if seq <= seen[0] or seq in pending:
            t.duplicates_filtered += 1
        else:
            pending.add(seq)
            while seen[0] + 1 in pending:
                seen[0] += 1
                pending.remove(seen[0])
            self.on_delivered()
        # Ack every arrival, duplicates included: the ack for an
        # earlier copy may itself have been lost.
        t.acks_sent += 1
        src, dst = self.pair
        t.fabric.transfer(dst, src, t.ACK_BYTES, self.on_ack)

    def attempt(self) -> None:
        self.timer = None
        t = self.transport
        fabric = t.fabric
        src, dst = self.pair
        if self.acked or fabric.engine._finished or src in fabric.failed_ranks:
            return  # a dead sender retransmits nothing, nor gives up on anyone
        n = self.attempts
        if n > t.max_retries:
            t.gave_up += 1
            if t.on_give_up is not None:
                t.on_give_up(src, dst)
            return
        self.attempts = n + 1
        if n:
            t.retransmits += 1
        fabric.transfer(src, dst, self.wire, self.deliver, rx_extra=self.rx_extra)
        interval = self.timeout0 * (t.backoff**n)
        if t._rng is not None and t.jitter:
            interval *= 1.0 + t.jitter * (2.0 * t._rng.random() - 1.0)
        self.timer = fabric.engine.call_in(interval, self.attempt)
