"""Diagnostics, the per-run report, and call-site extraction.

A :class:`Diagnostic` is one flagged contract violation; the
:class:`SanitizerReport` collects them for a run, deduplicating repeats
of the same (kind, region, site-pair) so a racy loop produces one entry
with a count rather than thousands.

Rendering (the bracketed-kind headline + labeled detail block) is shared
with the static checker through :mod:`repro.diagnostics`, so dynamic and
static findings print identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import call_site, format_block, summary_line

__all__ = [
    "Diagnostic",
    "SanitizerReport",
    "call_site",
    "region_str",
]


def region_str(region: tuple) -> str:
    """Human name for a shadow-state region key."""
    if region[0] == "win":
        return f"window {region[1]} memory at rank {region[2]}"
    if region[0] == "seg":
        return f"segment of rank {region[1]}"
    return repr(region)


@dataclass
class Diagnostic:
    """One flagged violation.

    ``kind`` is one of ``race`` (conflicting accesses with no
    happens-before edge), ``overlap`` (overlapping in-flight puts),
    ``unflushed-read`` (reading a put target before the put's flush),
    ``epoch`` (RMA outside a passive-target epoch), ``win-sync`` (missing
    WIN_SYNC in the separate memory model), or ``lost-notify`` (an
    event_notify no wait ever consumed).
    """

    kind: str
    message: str
    rank: int
    time: float
    region: tuple | None = None
    ranges: tuple = ()
    site: str = ""
    other_site: str = ""
    other_rank: int | None = None
    count: int = 1

    def format(self) -> str:
        head = f"[{self.kind}] rank {self.rank} @ t={self.time:.9f}: {self.message}"
        spans = ", ".join(f"[{a}, {b})" for a, b in self.ranges)
        other = self.other_site
        if other and self.other_rank is not None:
            other = f"{other} (rank {self.other_rank})"
        return format_block(
            head,
            [
                ("region", region_str(self.region) if self.region is not None else None),
                ("bytes", spans),
                ("access", self.site),
                ("other", other),
                ("repeats", f"x{self.count}" if self.count > 1 else None),
            ],
        )


@dataclass
class SanitizerReport:
    """All diagnostics from one sanitized run, plus instrumentation stats."""

    nranks: int
    diagnostics: list[Diagnostic] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    _dedup: dict = field(default_factory=dict, repr=False)

    def add(self, diag: Diagnostic) -> None:
        key = (diag.kind, diag.region, diag.site, diag.other_site)
        prior = self._dedup.get(key)
        if prior is not None:
            prior.count += 1
            return
        self._dedup[key] = diag
        self.diagnostics.append(diag)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def kinds(self) -> set[str]:
        return {d.kind for d in self.diagnostics}

    def to_text(self) -> str:
        head = summary_line("sanitizer", len(self.diagnostics), f"{self.nranks} ranks")
        if self.clean:
            return head
        return "\n".join([head] + [d.format() for d in self.diagnostics])

