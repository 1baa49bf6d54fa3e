"""repro.diagnostics — rendering shared by static and dynamic checkers.

Both ``repro.lint`` (the static protocol checker) and ``repro.sanitizer``
(the dynamic happens-before checker) report findings as a bracketed kind
tag, a one-line headline, and an indented block of labeled detail lines
ending in ``file.py:NN`` call sites::

    [CAF006] deadlock_demo.py:27 in figure2: blocking MPI call may ...
        rule:   dual-runtime-deadlock
        put:    deadlock_demo.py:26 in figure2

    [race] rank 3 @ t=0.000120000: conflicting write/read ...
        region: window 0 memory at rank 3
        access: kernel.py:41 in body

This module owns that shared layout (:func:`format_block`), the
application-frame call-site extraction used by the dynamic checker
(:func:`call_site`), and the summary-line convention
(:func:`summary_line`), so static and dynamic findings print identically
and downstream tooling can parse one format.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable
from types import FrameType

#: Path fragments identifying runtime-internal frames that a diagnostic
#: should never point at. Application code (``repro/apps``) and tests are
#: deliberately *not* listed.
RUNTIME_PARTS = (
    "repro/sim/",
    "repro/mpi/",
    "repro/gasnet/",
    "repro/caf/",
    "repro/sanitizer/",
    "repro/lint/",
    "repro/diagnostics/",
)


def call_site(start: FrameType | None = None) -> str:
    """The innermost *application* frame, as ``file.py:NN in func``.

    Walks outward — from ``start``, else from the caller — past runtime and
    stdlib frames so a report points at the user's ``A.write(...)`` line,
    not at the window implementation.
    """
    frame: FrameType | None = start if start is not None else sys._getframe(1)
    fallback: str | None = None
    while frame is not None:
        fname = frame.f_code.co_filename.replace("\\", "/")
        label = f"{os.path.basename(fname)}:{frame.f_lineno} in {frame.f_code.co_name}"
        if fallback is None:
            fallback = label
        runtime = any(part in fname for part in RUNTIME_PARTS)
        stdlib = fname.endswith("/threading.py") or fname.startswith("<")
        if not runtime and not stdlib:
            return label
        frame = frame.f_back
    return fallback or "<unknown>"


def source_site(path: str, line: int, func: str = "") -> str:
    """A static source location in the same shape :func:`call_site` emits."""
    label = f"{os.path.basename(path)}:{line}"
    return f"{label} in {func}" if func else label


def format_block(head: str, details: Iterable[tuple[str, object]]) -> str:
    """One finding: headline plus aligned, indented detail lines.

    ``details`` pairs whose value is empty/None are skipped, so callers
    can list every optional field unconditionally.
    """
    lines = [head]
    for label, value in details:
        if value is None or value == "":
            continue
        tag = f"{label}:"
        pad = tag.ljust(8)
        if not pad.endswith(" "):
            pad += " "
        lines.append(f"    {pad}{value}")
    return "\n".join(lines)


def summary_line(tool: str, count: int, scope: str) -> str:
    """The one-line report header both checkers print before findings."""
    if count == 0:
        return f"{tool}: clean ({scope}, no violations)"
    return f"{tool}: {count} distinct violation(s) across {scope}"
