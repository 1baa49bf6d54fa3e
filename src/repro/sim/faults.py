"""Deterministic fault injection for the simulated fabric.

A :class:`FaultPlan` is a seeded program of misbehavior: per-message drop /
duplicate / delay / corruption decisions drawn from one
:func:`repro.util.rng.rank_rng` stream, plus scheduled image crashes
(``kill rank r at virtual time t``). The engine's event ordering is
deterministic, so :meth:`FaultPlan.draw` is consulted in a reproducible
sequence and the whole faulty run replays bit-for-bit from its seed.

Fault semantics at the fabric (:meth:`repro.sim.network.NetFabric.transfer`):

* **drop** — the message charges NIC occupancy as usual but its delivery
  callback never runs (the bytes die on the wire).
* **corrupt** — modeled as a checksummed link: the receiver detects the
  damage and discards the message, so behaviorally a drop that is counted
  separately. User payload bytes are never silently flipped; that keeps
  delivered == correct, which is what lets the reliable layer guarantee
  exactly-once semantics by retransmission alone.
* **duplicate** — the delivery callback runs twice, the second time a
  jittered interval after the first (a retransmitted-but-not-lost frame).
* **delay** — extra latency added *after* the per-pair FIFO clamp, so a
  delayed message can be overtaken by later traffic (genuine reordering).

A plan instance is stateful (it owns the RNG cursor): build a fresh one
per run, or call :meth:`reset` to rewind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import SimulationError
from repro.util.rng import rank_rng


@dataclass(frozen=True)
class FaultDecision:
    """What the plan ruled for one message. ``None`` fields mean "no"."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0
    duplicate_lag: float = 0.0

    @property
    def discard(self) -> bool:
        """True when the delivery callback must not run (drop or corrupt)."""
        return self.drop or self.corrupt

    @property
    def kind(self) -> str:
        if self.drop:
            return "drop"
        if self.corrupt:
            return "corrupt"
        if self.duplicate:
            return "duplicate"
        if self.extra_delay:
            return "delay"
        return "clean"


_CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultEvent:
    """One non-clean ruling, pinned to its position in the message stream.

    ``index`` is the value of the plan's ``drawn`` cursor when the ruling
    was made: the engine consults the plan in deterministic order, so a
    recorded event replays onto the *same* message when fed back through a
    :class:`ScriptedFaultPlan`.
    """

    index: int
    src: int
    dst: int
    nbytes: int
    decision: FaultDecision

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "src": self.src,
            "dst": self.dst,
            "nbytes": self.nbytes,
            "kind": self.decision.kind,
            "extra_delay": self.decision.extra_delay,
            "duplicate_lag": self.decision.duplicate_lag,
        }

    @staticmethod
    def from_dict(d: dict) -> "FaultEvent":
        kind = d["kind"]
        decision = FaultDecision(
            drop=kind == "drop",
            corrupt=kind == "corrupt",
            duplicate=kind == "duplicate",
            extra_delay=float(d.get("extra_delay", 0.0)),
            duplicate_lag=float(d.get("duplicate_lag", 0.0)),
        )
        return FaultEvent(
            index=int(d["index"]),
            src=int(d["src"]),
            dst=int(d["dst"]),
            nbytes=int(d["nbytes"]),
            decision=decision,
        )


@dataclass
class FaultPlan:
    """A seeded, deterministic program of fabric faults and image crashes.

    Parameters
    ----------
    seed:
        Seeds the single fault RNG stream (independent of application and
        simulator streams; see :func:`repro.util.rng.rank_rng`).
    drop_rate, corrupt_rate, dup_rate, delay_rate:
        Per-message probabilities in [0, 1]; their sum must not exceed 1
        (one message suffers at most one fault).
    delay_jitter:
        Maximum extra delay (seconds) for a delayed message; the actual
        value is uniform in (0, delay_jitter].
    dup_lag:
        Maximum spacing (seconds) between a duplicate's two deliveries.
    crashes:
        ``[(rank, virtual_time), ...]`` image-kill events, delivered
        through the engine by :class:`repro.sim.cluster.Cluster`.
    record:
        When True, every non-clean ruling is appended to :attr:`events` as
        a :class:`FaultEvent`. A recorded run can then be replayed — and
        delta-debugged — through a :class:`ScriptedFaultPlan` built from
        any subset of those events.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_jitter: float = 50e-6
    dup_lag: float = 10e-6
    crashes: list[tuple[int, float]] = field(default_factory=list)
    record: bool = False

    # counters (what the plan actually did this run)
    drawn: int = field(default=0, init=False)
    #: Non-clean rulings recorded this run (``record=True`` only).
    events: list[FaultEvent] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        rates = (self.drop_rate, self.corrupt_rate, self.dup_rate, self.delay_rate)
        if any(r < 0 or r > 1 for r in rates):
            raise SimulationError(f"fault rates must be in [0, 1], got {rates}")
        if sum(rates) > 1.0:
            raise SimulationError(
                f"fault rates sum to {sum(rates)} > 1; a message suffers at "
                "most one fault"
            )
        if self.delay_jitter < 0 or self.dup_lag < 0:
            raise SimulationError("delay_jitter and dup_lag must be non-negative")
        for rank, when in self.crashes:
            if when < 0:
                raise SimulationError(f"crash time must be non-negative, got {when}")
            if rank < 0:
                raise SimulationError(f"crash rank must be non-negative, got {rank}")
        self.reset()

    def reset(self) -> None:
        """Rewind the RNG so the same instance can replay identically."""
        self._rng = rank_rng(self.seed, 0, "faults")
        self.drawn = 0
        self.events = []

    def check_ranks(self, nranks: int) -> None:
        """Validate every scheduled crash against the cluster size.

        Called by :class:`~repro.sim.cluster.Cluster` at construction,
        before crash events are seeded into the engine.
        """
        for rank, _when in self.crashes:
            if not 0 <= rank < nranks:
                raise SimulationError(
                    f"crash rank {rank} out of range [0, {nranks})"
                )

    @property
    def active(self) -> bool:
        """Whether any per-message fault can ever fire (crashes aside)."""
        return (
            self.drop_rate + self.corrupt_rate + self.dup_rate + self.delay_rate
        ) > 0.0

    def draw(self, src: int, dst: int, nbytes: int) -> FaultDecision:
        """Rule on one message. Called by the fabric once per transfer, in
        deterministic engine order."""
        index = self.drawn
        self.drawn += 1
        if not self.active:
            return _CLEAN
        decision = self._decide()
        if self.record and decision is not _CLEAN:
            self.events.append(FaultEvent(index, src, dst, nbytes, decision))
        return decision

    def _decide(self) -> FaultDecision:
        u = self._rng.random()
        edge = self.drop_rate
        if u < edge:
            return FaultDecision(drop=True)
        edge += self.corrupt_rate
        if u < edge:
            return FaultDecision(corrupt=True)
        edge += self.dup_rate
        if u < edge:
            lag = self.dup_lag * max(self._rng.random(), 1e-3)
            return FaultDecision(duplicate=True, duplicate_lag=lag)
        edge += self.delay_rate
        if u < edge:
            extra = self.delay_jitter * max(self._rng.random(), 1e-3)
            return FaultDecision(extra_delay=extra)
        return _CLEAN


class ScriptedFaultPlan(FaultPlan):
    """A fault plan that replays an explicit list of :class:`FaultEvent`.

    Unlike the stochastic parent, the ruling for message *i* is looked up
    in a table; every message without an entry is clean. This is what the
    delta-debugging minimizer runs candidate subsets through: removing an
    event never perturbs the ruling of any other message, so each
    candidate is a faithful partial replay of the recorded run.
    """

    def __init__(
        self,
        events: list[FaultEvent] = (),
        *,
        crashes: list[tuple[int, float]] | None = None,
        record: bool = False,
    ):
        self._decisions = {e.index: e.decision for e in events}
        self.scripted_events = list(events)
        super().__init__(crashes=list(crashes or []), record=record)

    @property
    def active(self) -> bool:
        return bool(self._decisions)

    def reset(self) -> None:
        self.drawn = 0
        self.events = []

    def _decide(self) -> FaultDecision:  # pragma: no cover - not used
        raise SimulationError("scripted plans do not draw from an RNG")

    def draw(self, src: int, dst: int, nbytes: int) -> FaultDecision:
        index = self.drawn
        self.drawn += 1
        decision = self._decisions.get(index, _CLEAN)
        if self.record and decision is not _CLEAN:
            self.events.append(FaultEvent(index, src, dst, nbytes, decision))
        return decision
