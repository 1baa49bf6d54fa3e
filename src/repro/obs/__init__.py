"""repro.obs: op-level metrics, communication matrix, critical path, reports.

The observability layer the paper's own evidence is made of: Figures 4 and 8
are per-category decompositions whose *explanations* live in per-op
statistics — how many ``MPI_WIN_FLUSH_ALL`` calls ``event_notify`` issued and
what each cost as P grew, which P x P traffic pattern an all-to-all produced,
which rank chain actually determined the makespan.

Components
----------
* :class:`Metrics` — per-rank, per-op-kind counters/bytes/virtual-time with
  log-bucketed size and latency histograms; zero engine interaction, so
  timelines are bit-identical with metrics on or off.
* :class:`CommMatrix` — P x P messages/bytes fed by the fabric.
* :func:`critical_path` — backward dependency walk over trace events.
* :class:`RunReport` / :func:`build_report` — the deterministic JSON
  artifact, with Prometheus text export and a diff for regression triage.
* :mod:`repro.obs.capture` — the one process-wide session that arms
  observers (metrics, tracer, telemetry, IR recorder, sanitizer) on every
  cluster built while it is open and numbers and writes their artifacts.
* :class:`LiveTelemetry` (:mod:`repro.obs.live`) — streaming JSONL progress
  snapshots (sim/wall time, events/s, blocked ranks, RSS)
  from a read-only engine heartbeat; render with ``python -m repro.obs top``.
* :func:`fit_scaling` / :class:`ScalingReport` (:mod:`repro.obs.scaling`) —
  fit per-op virtual cost vs P across a rank sweep of RunReports, check the
  fits against declared expectations and the static cost model (the Fig. 4
  ``flush_all`` O(P) cliff detector).

Enable per run with ``run_caf(..., metrics=True)`` (add ``trace=True`` for
the critical path, ``live=PATH`` for telemetry), or
``python -m repro.apps <app> --metrics out.json --live out.jsonl``.
``python -m repro.obs render/diff/validate/top/scaling`` works the artifacts.
"""

from repro.obs import capture
from repro.obs.critical import CriticalPath, PathStep, critical_path
from repro.obs.live import LiveTelemetry, read_telemetry, render_top
from repro.obs.metrics import CommMatrix, Metrics, OpStats
from repro.obs.report import (
    ReportDiff,
    RunReport,
    SchemaError,
    build_report,
    diff_reports,
    diff_reports_all,
    validate_report,
)
from repro.obs.scaling import (
    OrderFit,
    ScalingReport,
    fit_order,
    fit_scaling,
    validate_scaling_report,
)

__all__ = [
    "CommMatrix",
    "CriticalPath",
    "LiveTelemetry",
    "Metrics",
    "OpStats",
    "OrderFit",
    "PathStep",
    "ReportDiff",
    "RunReport",
    "ScalingReport",
    "SchemaError",
    "build_report",
    "capture",
    "critical_path",
    "diff_reports",
    "diff_reports_all",
    "fit_order",
    "fit_scaling",
    "read_telemetry",
    "render_top",
    "validate_report",
    "validate_scaling_report",
]
