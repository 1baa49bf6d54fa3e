"""MPI_Status: source/tag/count of a completed receive."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Status:
    source: int = -1
    tag: int = -1
    count: int = 0  # bytes received
