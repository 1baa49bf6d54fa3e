"""Shared experiment plumbing: result records, scales, ideal-scale series."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.util.tables import format_table

#: Named problem scales. "quick" keeps every experiment in seconds for
#: benchmarks/tests; "default" is the documented reproduction scale.
SCALES = ("quick", "default")


def check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    notes: str = ""
    #: Named scalar findings benchmarks/tests assert on.
    findings: dict[str, Any] = field(default_factory=dict)

    def render(self, precision: int = 4) -> str:
        text = format_table(
            self.headers, self.rows, title=f"[{self.exp_id}] {self.title}", precision=precision
        )
        if self.notes:
            text += "\n" + self.notes
        return text


def ideal_scale(procs: Sequence[int], base_value: float) -> list[float]:
    """The paper's IDEAL-SCALE series: linear scaling from the first point."""
    p0 = procs[0]
    return [base_value * p / p0 for p in procs]
