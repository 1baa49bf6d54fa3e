"""Resilience subsystem: coordinated checkpoint/restart and shrink recovery.

Built on the failure surfaces the lower layers already expose — injected
crashes and transport give-ups land in ``cluster.failed_ranks``, ULFM-style
errors fail operations naming dead peers eagerly, and ``Image.shrink_team``
rebuilds a survivor team without barriers. This package adds:

* :mod:`repro.resilience.checkpoint` — the coordinated quiesce-then-snapshot
  protocol, the versioned :class:`Checkpoint` artifact, and the in-memory /
  on-disk :class:`CheckpointStore`.
* :mod:`repro.resilience.recovery` — :func:`run_resilient`, full restart
  from the last checkpoint; ``run_caf(max_recoveries=N)`` is the other
  discipline, in-run shrink-and-redistribute over the survivors.
* :mod:`repro.resilience.apps` — resilience-aware RandomAccess and CGPOP
  ports that survive mid-run image crashes under both disciplines.
* :mod:`repro.resilience.chaos` — the seeded fault-campaign harness
  (``python -m repro.resilience.chaos``) with invariant checking and
  failing-seed minimization (:mod:`repro.resilience.minimize`), and the
  one fault-free makespan and crash-fraction sweep.
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointStore,
    ResilienceService,
)
from repro.resilience.recovery import ResilientOutcome, run_resilient

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "ResilienceService",
    "ResilientOutcome",
    "run_resilient",
]
