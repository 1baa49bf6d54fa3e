"""Process-wide capture: the one place a process says which observers every
run carries and where their artifacts go.

The experiments runner (and anything else that builds clusters internally)
cannot thread ``metrics=True`` through every call site. While a capture is
active, every :class:`~repro.sim.cluster.Cluster` built is armed from it —
``Cluster.__init__`` asks :func:`arm` once, ``Cluster.run`` builds the
run's recorder (:meth:`Arming.recorder`) when the run starts and calls
:meth:`Arming.finish` once, on every exit path — and the session below is
the only process-wide arming state in ``src/repro``::

    with capture(out_dir, trace=True, record_ir=ir_dir) as session:
        ...  # every run writes run-NNNN.report.json, .trace.json, an IR trace
    session.written, session.recorded, session.skipped

What each part arms:

* ``out_dir`` — metrics on; one ``run-NNNN.report.json`` per run (a failed
  run leaves a partial report with ``meta.outcome == "failed"``). With
  ``trace`` also ``run-NNNN.trace.json`` (Chrome/Perfetto), with ``live``
  also ``run-NNNN.telemetry.jsonl`` (``live_interval`` wall seconds apart).
* ``record_ir`` — a :class:`~repro.ir.record.Recorder` on every run that can
  be recorded; a path ending in ``.npz``/``.json`` names a single artifact
  stem (one run), anything else a directory of ``run-NNNN[-app]`` stems.
  Runs under a fault plan or the reliable transport are counted in
  ``session.skipped`` instead: pattern-changing faults invalidate a trace.
  A failed run leaves no trace.
* ``sanitize`` — the happens-before checker on; ``session.sanitizer_reports``
  collects the report of every run that completed.

One counter numbers the runs: a run takes the next index when it is built
and the counter moves past it only when the run writes an artifact, so all
artifacts of one run share their ``run-NNNN`` stem and a run one emitter
skips is a gap in that emitter's numbering, not a shift of every later
stem. Parts can be armed and disarmed independently (nested ``capture``
blocks, or :func:`start` while active); numbering restarts at ``run-0000``
only once nothing is armed.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import pathlib
from typing import Any

#: Session fields that arm something (the rest is what armed runs left).
_ARMING = ("dir", "ir", "trace", "live", "live_interval", "sanitize")


@dataclasses.dataclass
class Session:
    """What is armed, the run counter, and what the armed runs left."""

    dir: pathlib.Path | None = None
    ir: pathlib.Path | None = None
    trace: bool = False
    live: bool = False
    live_interval: float | None = None
    sanitize: bool = False
    #: The lowest run index no run has written under.
    seq: int = 0
    #: Reports, Chrome traces and telemetry streams written, in order.
    written: list[pathlib.Path] = dataclasses.field(default_factory=list)
    #: IR trace files written, in order.
    recorded: list[pathlib.Path] = dataclasses.field(default_factory=list)
    #: Runs the recorder refused, by reason.
    skipped: collections.Counter[str] = dataclasses.field(default_factory=collections.Counter)
    #: The most recently finalized :class:`~repro.ir.trace.Trace`.
    last_trace: Any = None
    #: Reports of completed runs while ``sanitize`` was forced, oldest first.
    sanitizer_reports: list[Any] = dataclasses.field(default_factory=list)

    @property
    def active(self) -> bool:
        return self.dir is not None or self.ir is not None or self.sanitize

    def recorded_summary(self) -> str:
        """``recorded N trace artifact(s) in PATH`` plus what the recorder
        skipped and why (the closing line of a ``--record-ir`` CLI)."""
        text = f"recorded {len(self.recorded)} trace artifact(s) in {self.ir}"
        if self.skipped:
            runs = ", ".join(f"{n} {why} run(s)" for why, n in self.skipped.items())
            text += f", skipped {runs}: pattern-changing faults invalidate a trace"
        return text


@dataclasses.dataclass
class Arming:
    """What the active capture asks of one cluster (read by ``Cluster``)."""

    session: Session
    index: int
    sanitize: bool
    metrics: bool
    trace: bool
    live: pathlib.Path | None
    live_interval: float | None
    #: Whether the run is recorded: the decision only, since a recorder
    #: holds its cluster (a cycle, were the run never to start).
    record: bool

    def recorder(self, cluster):
        """The IR recorder of ``cluster``'s run, or None when the run is not
        recorded (``Cluster.run`` calls this when the run starts)."""
        if not self.record:
            return None
        from repro.ir.record import Recorder

        return Recorder(cluster)

    def finish(self, cluster, recorder, failure: BaseException | None = None) -> None:
        """Write an armed run's artifacts (``Cluster.run`` calls this once, on
        every exit path, after ``recorder`` is detached). ``failure`` marks the
        report as the partial one of a run that died; such a run has no
        meaningful makespan, so its recording is dropped."""
        s = self.session
        index = self.index
        label = f"run-{index:04d}" + (f"-{cluster.app}" if cluster.app else "")
        wrote = False
        if failure is None:
            if recorder is not None and s.ir is not None:
                s.last_trace = trace = recorder.finalize(makespan=cluster.elapsed)
                if s.ir.suffix in (".npz", ".json"):
                    stem = s.ir
                else:
                    stem = s.ir / label
                    wrote = True
                s.recorded.extend(trace.save(stem))
            if s.sanitize and cluster.sanitizer is not None:
                s.sanitizer_reports.append(cluster.sanitizer.report)
        if s.dir is not None:
            from repro.obs.report import build_report

            report_path = s.dir / f"run-{index:04d}.report.json"
            build_report(
                cluster, backend=cluster.backend, label=label, app=cluster.app,
                failure=failure,
            ).to_json(str(report_path))
            s.written.append(report_path)
            tel = cluster.telemetry
            if tel is not None and tel.path.exists():
                s.written.append(tel.path)
            if s.trace and cluster.tracer.events:
                trace_path = s.dir / f"run-{index:04d}.trace.json"
                cluster.tracer.to_chrome_trace(str(trace_path))
                s.written.append(trace_path)
            wrote = True
        if wrote:
            s.seq = index + 1


_session = Session()


def start(
    out_dir: str | os.PathLike | None = None,
    *,
    trace: bool = False,
    live: bool = False,
    live_interval: float | None = None,
    record_ir: str | os.PathLike | None = None,
    sanitize: bool = False,
) -> Session:
    """Arm the named parts (see the module docstring) on the session; parts
    already armed stay armed. Returns the session."""
    s = _session
    if out_dir is not None:
        s.dir = pathlib.Path(out_dir)
        s.dir.mkdir(parents=True, exist_ok=True)
    if record_ir is not None:
        s.ir = pathlib.Path(record_ir)
        s.last_trace = None
    s.trace |= trace
    s.live |= live
    s.sanitize |= sanitize
    if live_interval is not None:
        s.live_interval = live_interval
    return s


def _retire_if_idle() -> None:
    """Once nothing is armed the next capture starts from ``run-0000``; the
    last trace stays readable until the next recording starts."""
    global _session
    if not _session.active:
        _session = Session(last_trace=_session.last_trace)


def stop() -> list[pathlib.Path]:
    """Disarm everything; returns the artifact paths written."""
    s = _session
    s.dir = s.ir = s.live_interval = None
    s.trace = s.live = s.sanitize = False
    _retire_if_idle()
    return s.written + s.recorded


def active() -> bool:
    return _session.active


@contextlib.contextmanager
def capture(out_dir: str | os.PathLike | None = None, **parts: Any):
    """Context-managed :func:`start`: yields the session and, on exit,
    disarms what this block armed (an enclosing capture stays as it was)."""
    before = [getattr(_session, name) for name in _ARMING]
    session = start(out_dir, **parts)
    try:
        yield session
    finally:
        for name, value in zip(_ARMING, before):
            setattr(session, name, value)
        _retire_if_idle()


def arm(cluster) -> Arming | None:
    """What the capture asks of ``cluster`` (``Cluster.__init__`` calls this
    once, after the fault plan and transport are in place); None when no
    capture is active."""
    s = _session
    if not s.active:
        return None
    record = False
    if s.ir is not None:
        if cluster.faults is not None:
            s.skipped["fault-injected"] += 1
        elif cluster.fabric.reliable is not None:
            s.skipped["reliable-transport"] += 1
        else:
            record = True
    out = s.dir
    return Arming(
        session=s,
        index=s.seq,
        sanitize=s.sanitize,
        # The obs side table rides in the IR trace, so a recorded run needs
        # the metrics layer armed for its hooks to fire.
        metrics=out is not None or record,
        trace=out is not None and s.trace,
        live=out / f"run-{s.seq:04d}.telemetry.jsonl" if out is not None and s.live else None,
        live_interval=s.live_interval,
        record=record,
    )
