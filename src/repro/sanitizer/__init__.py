"""repro.sanitizer — a happens-before race & RMA-epoch checker.

Opt-in via ``Cluster(..., sanitize=True)`` / ``run_caf(..., sanitize=True)``,
or force it on process-wide with ``repro.obs.capture.capture(sanitize=True)``
so unmodified apps and experiments run under the checker — that is how
``python -m repro.sanitizer`` works. See ``docs/architecture.md``
("Sanitizer: happens-before checking").
"""

from __future__ import annotations

from repro.sanitizer.core import Sanitizer
from repro.sanitizer.report import Diagnostic, SanitizerReport, call_site
from repro.sanitizer.shadow import AccessRecord, classify, dominates
from repro.sanitizer.view import TrackedArray, tracked_view

__all__ = [
    "AccessRecord",
    "Diagnostic",
    "Sanitizer",
    "SanitizerReport",
    "TrackedArray",
    "tracked_view",
    "call_site",
    "classify",
    "dominates",
]
