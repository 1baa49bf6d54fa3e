"""Process-wide capture: make every ``run_caf`` emit observability artifacts.

The experiments runner (and anything else that builds clusters internally)
cannot thread ``metrics=True`` through every call site; this module is the
same force-enable pattern the sanitizer uses. While a capture is active,
``run_caf`` enables metrics (and optionally tracing) on every cluster it
builds and writes one ``run-NNNN.report.json`` (and ``run-NNNN.trace.json``)
per run into the capture directory, tagged with the program name so sweeps
stay attributable.

Scope it with the context manager::

    with obs.capture(out_dir, trace=False):
        ...  # every run_caf inside emits run-NNNN.report.json

or drive it imperatively (the CLI flags do) with :func:`start` / :func:`stop`.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Any

_state: dict[str, Any] = {
    "dir": None,
    "trace": False,
    "seq": 0,
    "written": [],
    "live": False,
    "live_interval": None,
}


def start(
    out_dir: str | os.PathLike,
    *,
    trace: bool = False,
    live: bool = False,
    live_interval: float | None = None,
) -> None:
    """Begin capturing: subsequent ``run_caf`` calls emit artifacts.

    ``live=True`` additionally arms the streaming telemetry tap on every
    captured run: each run writes ``run-NNNN.telemetry.jsonl`` next to its
    report (``live_interval`` overrides the snapshot cadence in wall
    seconds; ``None`` keeps the tap's default).
    """
    path = pathlib.Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    _state.update(
        dir=path, trace=trace, seq=0, written=[],
        live=live, live_interval=live_interval,
    )


def stop() -> list[pathlib.Path]:
    """End the capture; returns the artifact paths written."""
    written = list(_state["written"])
    _state.update(
        dir=None, trace=False, seq=0, written=[],
        live=False, live_interval=None,
    )
    return written


def active() -> bool:
    return _state["dir"] is not None


def trace_forced() -> bool:
    return active() and bool(_state["trace"])


def live_forced() -> bool:
    return active() and bool(_state["live"])


def live_interval() -> float | None:
    return _state["live_interval"]


def next_index() -> int:
    """The lowest run index this capture has not used (0 when inactive).

    ``run_caf`` numbers a run once, from this and the IR recording's
    counterpart, and hands the index to every emitter, so all artifacts of
    one run share their ``run-NNNN`` stem.
    """
    return _state["seq"]


def telemetry_path(index: int) -> pathlib.Path | None:
    """Stream path for run ``index`` (None unless live-armed)."""
    if not live_forced():
        return None
    return _state["dir"] / f"run-{index:04d}.telemetry.jsonl"


@contextlib.contextmanager
def capture(
    out_dir: str | os.PathLike,
    *,
    trace: bool = False,
    live: bool = False,
    live_interval: float | None = None,
):
    """Context-managed capture window; yields the output directory."""
    start(out_dir, trace=trace, live=live, live_interval=live_interval)
    try:
        yield pathlib.Path(out_dir)
    finally:
        stop()


def emit(
    cluster,
    *,
    backend: str | None = None,
    app: str | None = None,
    failure: BaseException | None = None,
    index: int | None = None,
) -> None:
    """Write this run's artifacts if a capture is active (run_caf calls it,
    with the run's ``index``; without one the run takes the next free).

    ``failure`` marks the artifact as a partial, failed-run report (see
    :func:`repro.obs.report.build_report`); run_caf passes the exception
    through on its error path so crashed/hung runs still leave evidence.
    """
    out: pathlib.Path | None = _state["dir"]
    if out is None:
        return
    from repro.obs.report import build_report

    seq = _state["seq"] if index is None else index
    _state["seq"] = seq + 1
    label = f"run-{seq:04d}" + (f"-{app}" if app else "")
    report_path = out / f"run-{seq:04d}.report.json"
    build_report(
        cluster, backend=backend, label=label, app=app, failure=failure
    ).to_json(str(report_path))
    _state["written"].append(report_path)
    tel = getattr(cluster, "telemetry", None)
    if tel is not None and tel.path.exists():
        _state["written"].append(tel.path)
    if _state["trace"] and cluster.tracer.events:
        trace_path = out / f"run-{seq:04d}.trace.json"
        cluster.tracer.to_chrome_trace(str(trace_path))
        _state["written"].append(trace_path)
