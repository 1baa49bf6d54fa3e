"""Event tracing: a timeline of what the simulated machine did.

Disabled by default (zero overhead beyond a flag check); enable with
``Cluster.tracer.enable()`` or ``run_caf(..., trace=True)``. While
enabled, the fabric records every transfer and the profiler records every
region, giving an HPCToolkit-trace-like view that the paper's §4 analyses
were produced from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # "transfer", "region", or library-defined
    rank: int  # acting rank (src for transfers)
    t0: float
    t1: float
    detail: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.events: list[TraceEvent] = []

    def enable(self) -> None:
        self.enabled = True

    def record(self, kind: str, rank: int, t0: float, t1: float, **detail: Any) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(kind, rank, t0, t1, detail))

    # -- queries -----------------------------------------------------------

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    # -- export ------------------------------------------------------------

    def to_chrome_trace_events(self) -> list[dict[str, Any]]:
        """The trace as Chrome/Perfetto Trace Event Format objects.

        Each event becomes a complete ("X") event: ``ts``/``dur`` in
        microseconds, ``pid``/``tid`` the acting rank (so the viewer draws
        one track per rank), detail fields under ``args``. Process-name
        metadata ("M") events label each track ``rank N`` in the viewer.
        """
        out: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": r,
                "args": {"name": f"rank {r}"},
            }
            for r in sorted({e.rank for e in self.events})
        ]
        for e in sorted(self.events, key=lambda e: (e.t0, e.rank)):
            args = {
                k: v if isinstance(v, (int, float, str, bool)) else repr(v)
                for k, v in sorted(e.detail.items())
            }
            out.append(
                {
                    "name": e.detail.get("label", e.kind),
                    "cat": e.kind,
                    "ph": "X",
                    "ts": e.t0 * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": e.rank,
                    "tid": e.rank,
                    "args": args,
                }
            )
        return out

    def to_chrome_trace(self, path: str) -> int:
        """Write the trace as Chrome/Perfetto JSON (open in ``ui.perfetto.dev``
        or ``chrome://tracing``). Returns the number of events written."""
        events = self.to_chrome_trace_events()
        payload = {"traceEvents": events, "displayTimeUnit": "ns"}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return len(events)
