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
        engine = fabric.engine
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        self.sends += 1
        wire = nbytes + self.HEADER_BYTES
        # Scale the first timeout with the frame's own serialization so
        # large payloads are not declared lost while still on the wire.
        ser = (wire + fabric.spec.header_bytes) / fabric.spec.bandwidth
        timeout0 = self.base_timeout + 4.0 * ser
        state = {"acked": False, "attempts": 0}

        def on_ack() -> None:
            state["acked"] = True

        def deliver() -> None:
            seen = self._delivered.setdefault(pair, [-1, set()])
            pending = seen[1]
            if seq <= seen[0] or seq in pending:
                self.duplicates_filtered += 1
            else:
                pending.add(seq)
                while seen[0] + 1 in pending:
                    seen[0] += 1
                    pending.remove(seen[0])
                on_delivered()
            # Ack every arrival, duplicates included: the ack for an
            # earlier copy may itself have been lost.
            self.acks_sent += 1
            fabric.transfer(dst, src, self.ACK_BYTES, on_ack)

        def attempt() -> None:
            if state["acked"] or fabric.engine._finished:
                return
            n = state["attempts"]
            if n > self.max_retries:
                self.gave_up += 1
                if self.on_give_up is not None:
                    self.on_give_up(src, dst)
                return
            state["attempts"] = n + 1
            if n:
                self.retransmits += 1
            fabric.transfer(src, dst, wire, deliver, rx_extra=rx_extra)
            interval = timeout0 * (self.backoff**n)
            if self._rng is not None and self.jitter:
                interval *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
            engine.call_in(interval, attempt)

        attempt()
        return math.inf
