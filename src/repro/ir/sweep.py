"""Parameter sweeps over a recorded trace: compile once, re-price N times.

This is the subsystem's payoff: a 16-point MachineSpec sweep costs one
live run (to record) plus N vectorized replays, instead of N live
simulations. ``run_sweep`` compiles the trace once, replays every point,
and emits RunReport-style JSON artifacts (one per point plus a summary).
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.ir.replay import CompiledTrace, ReplayResult, replay
from repro.ir.trace import Trace
from repro.obs.artifact import write
from repro.sim.network import MachineSpec

SCHEMA_NAME = "repro.ir.sweep/1"


@dataclass(frozen=True)
class SweepPoint:
    """One sweep coordinate: named overrides applied to the base spec."""

    name: str
    overrides: dict[str, Any] = field(default_factory=dict)

    def resolve(self, base: MachineSpec) -> MachineSpec:
        if not self.overrides:
            return base
        return base.with_overrides(name=self.name, **self.overrides)


def grid_points(vary: dict[str, list[Any]]) -> list[SweepPoint]:
    """Cartesian product of ``{field: [values...]}`` as sweep points."""
    fields = sorted(vary)
    points = []
    for combo in itertools.product(*(vary[f] for f in fields)):
        overrides = dict(zip(fields, combo))
        name = ",".join(f"{f}={overrides[f]!r}" for f in fields)
        points.append(SweepPoint(name=name, overrides=overrides))
    return points


@dataclass
class SweepOutcome:
    """All per-point results plus the machine-readable summary."""

    results: list[tuple[SweepPoint, ReplayResult]]
    summary: dict[str, Any]
    written: list[pathlib.Path] = field(default_factory=list)


def run_sweep(
    trace: Trace | CompiledTrace,
    points: list[SweepPoint],
    *,
    base_spec: MachineSpec | None = None,
    out_dir: str | pathlib.Path | None = None,
) -> SweepOutcome:
    """Replay ``trace`` at every sweep point.

    ``base_spec`` defaults to the recorded spec; each point's overrides
    are applied on top of it. With ``out_dir``, writes
    ``point-NN.replay.json`` per point and a ``sweep-summary.json``.
    """
    compiled = trace if isinstance(trace, CompiledTrace) else CompiledTrace(trace)
    base = base_spec if base_spec is not None else compiled.recorded_spec
    results: list[tuple[SweepPoint, ReplayResult]] = []
    rows = []
    for point in points:
        res = replay(compiled, point.resolve(base))
        results.append((point, res))
        rows.append(
            {
                "name": point.name,
                "overrides": dict(point.overrides),
                "makespan": res.makespan,
                "warnings": list(res.warnings),
            }
        )
    manifest = compiled.trace.manifest
    summary = {
        "schema": SCHEMA_NAME,
        "app": manifest.get("app", ""),
        "backend": manifest.get("backend", ""),
        "nranks": compiled.nranks,
        "recorded_makespan": manifest.get("makespan"),
        "base_spec": base.name,
        "points": rows,
    }
    outcome = SweepOutcome(results=results, summary=summary)
    if out_dir is not None:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for idx, (point, res) in enumerate(results):
            path = out / f"point-{idx:02d}.replay.json"
            write(path, res.to_dict())
            outcome.written.append(path)
        summary_path = out / "sweep-summary.json"
        write(summary_path, summary)
        outcome.written.append(summary_path)
    return outcome
