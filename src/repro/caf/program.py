"""Run CAF programs on a simulated cluster.

A CAF *program* is a Python callable ``program(img, **kwargs)`` executed
SPMD on every image. :func:`run_caf` builds the cluster, instantiates the
chosen runtime backend on each image, and returns a :class:`CafRun` with
per-image results plus the run's profiler / memory / fabric meters.

Example::

    from repro.caf import run_caf

    def hello(img):
        co = img.allocate_coarray(4)
        co.local[:] = img.rank
        img.sync_all()
        return co.read((img.rank + 1) % img.nranks).tolist()

    run = run_caf(hello, nranks=4, backend="mpi")
    print(run.results)
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.caf.backends.gasnet_backend import GasnetBackend
from repro.caf.backends.mpi_backend import MpiBackend
from repro.caf.image import Image
from repro.sim.cluster import Cluster
from repro.sim.faults import FaultPlan
from repro.sim.memory import MemoryMeter
from repro.sim.network import MachineSpec, NetFabric
from repro.sim.profiler import Profiler
from repro.util.errors import CafError

BACKENDS = {
    "mpi": MpiBackend,
    "gasnet": GasnetBackend,
}


@dataclass
class CafRun:
    """Outcome of one simulated CAF program run."""

    cluster: Cluster
    results: list[Any]
    backend: str
    elapsed: float  # virtual makespan (seconds)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def profiler(self) -> Profiler:
        return self.cluster.profiler

    @property
    def memory(self) -> MemoryMeter:
        return self.cluster.memory

    @property
    def fabric(self) -> NetFabric:
        return self.cluster.fabric

    @property
    def tracer(self):
        return self.cluster.tracer

    @property
    def sanitizer(self):
        """The run's :class:`~repro.sanitizer.Sanitizer` (None unless
        ``sanitize=True``); its ``report`` holds the diagnostics."""
        return self.cluster.sanitizer

    @property
    def metrics(self):
        """The run's :class:`~repro.obs.metrics.Metrics` registry (None
        unless ``metrics=True``)."""
        return self.cluster.metrics

    @property
    def comm_matrix(self):
        """The run's P x P :class:`~repro.obs.metrics.CommMatrix` (None
        unless ``metrics=True``)."""
        return self.cluster.comm_matrix

    def report(self, *, label: str = "", app: str = ""):
        """Assemble a :class:`~repro.obs.report.RunReport` for this run."""
        from repro.obs.report import build_report

        return build_report(
            self.cluster, backend=self.backend, label=label, app=app
        )


def run_caf(
    program: Callable[..., Any],
    nranks: int,
    spec: MachineSpec | None = None,
    *,
    backend: str = "mpi",
    backend_options: dict[str, Any] | None = None,
    sim_seed: int = 12345,
    trace: bool = False,
    faults: FaultPlan | None = None,
    reliable: bool = False,
    deadline: float | None = None,
    sanitize: bool = False,
    metrics: bool = False,
    live: Any | None = None,
    live_interval: float | None = None,
    checkpoint_every: int | None = None,
    checkpoint_store: Any | None = None,
    resume_from: Any | None = None,
    **program_kwargs: Any,
) -> CafRun:
    """Run ``program(img, **program_kwargs)`` on ``nranks`` images.

    ``sim_seed`` seeds the per-rank simulator RNGs (``img.ctx.rng``); any
    other keyword — including one named ``seed`` — is forwarded verbatim to
    the program.

    ``faults`` installs a deterministic :class:`FaultPlan` on the fabric
    (message drops / duplicates / delays plus scheduled image crashes);
    ``reliable=True`` arms the ack/retransmit transport so lossy runs still
    deliver exactly once; ``deadline`` arms the engine watchdog, turning a
    fault-induced hang into :class:`~repro.util.errors.SimTimeoutError`.

    ``sanitize=True`` runs the program under the happens-before checker
    (see :mod:`repro.sanitizer`); diagnostics land on
    ``run.sanitizer.report`` and the virtual timeline is unchanged.

    ``metrics=True`` arms the op-level observability layer (see
    :mod:`repro.obs`): call counts, bytes, and modeled latencies per op
    kind land on ``run.metrics``, the P x P traffic matrix on
    ``run.comm_matrix``, and ``run.report()`` assembles the full
    :class:`~repro.obs.report.RunReport`. Recording never touches the
    engine, so the virtual timeline (and its event-order digest) is
    bit-identical with metrics on or off.

    ``live`` arms the streaming telemetry tap (see :mod:`repro.obs.live`):
    a path (or a prebuilt :class:`~repro.obs.live.LiveTelemetry`) to which
    the run appends JSONL progress snapshots — sim/wall time, events/s,
    blocked ranks with call sites, host RSS — every
    ``live_interval`` wall seconds (default 0.5). Like metrics, the tap
    never touches the engine: digests and makespans are bit-identical
    with telemetry on or off. Render streams with
    ``python -m repro.obs top``.

    ``checkpoint_every`` / ``checkpoint_store`` / ``resume_from`` attach a
    :class:`~repro.resilience.checkpoint.ResilienceService`: images reach
    it via ``img.resilience``, checkpoints are cut every N calls of
    ``img.resilience.step()``, and ``resume_from`` (a
    :class:`~repro.resilience.checkpoint.Checkpoint`, or ``"latest"`` to
    take the store's newest) transparently refills re-made allocations.

    When the run fails — a fault-induced hang, a crash surfacing as an
    error, a program bug — the raised exception carries the half-built
    cluster as ``exc.caf_cluster`` (with ``elapsed`` set to the time of
    death), and an active obs capture still emits a partial RunReport
    with ``meta.outcome == "failed"`` plus the failure record.
    """
    if backend not in BACKENDS:
        raise CafError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    spec = spec or MachineSpec(name="generic")
    from repro.ir import record as _ir_record
    from repro.obs import capture as _capture

    captured = _capture.active()
    # One index per run: its report, telemetry stream and IR trace share a
    # run-NNNN stem, so a run one emitter skips (recording refuses faults; a
    # failed run leaves no trace) is a gap in that emitter's numbering, not
    # a shift of every later stem.
    run_index = max(_capture.next_index(), _ir_record.next_index())
    if captured:
        # Process-wide capture (the experiments runner's --metrics DIR):
        # force metrics on, and tracing too when the capture asks for it.
        metrics = True
        trace = trace or _capture.trace_forced()
        if live is None and _capture.live_forced():
            # --live capture: stream run-NNNN.telemetry.jsonl next to the
            # run-NNNN.report.json this run will emit.
            live = _capture.telemetry_path(run_index)
            if live_interval is None:
                live_interval = _capture.live_interval()
    # Trace recording (--record-ir): pattern-changing faults invalidate a
    # trace, so fault-injected / lossy runs are skipped, not recorded.
    recording = _ir_record.active() and faults is None and not reliable
    if recording:
        # The obs side table rides in the trace, so the metrics layer must
        # be armed for the hooks to fire.
        metrics = True
    telemetry = None
    if live is not None:
        from repro.obs.live import LiveTelemetry

        if isinstance(live, LiveTelemetry):
            telemetry = live
        else:
            telemetry = LiveTelemetry(
                live,
                interval_s=live_interval,
                backend=backend,
                app=getattr(program, "__name__", ""),
            )
    cluster = Cluster(
        nranks, spec, seed=sim_seed, faults=faults, reliable=reliable,
        sanitize=sanitize, metrics=metrics, live=telemetry,
    )
    if recording:
        _ir_record.attach(
            cluster, backend=backend, app=getattr(program, "__name__", "")
        )
    if trace:
        cluster.tracer.enable()
    if (
        checkpoint_every is not None
        or checkpoint_store is not None
        or resume_from is not None
    ):
        from repro.resilience.checkpoint import CheckpointStore, ResilienceService

        store = checkpoint_store if checkpoint_store is not None else CheckpointStore()
        resume = resume_from
        if resume == "latest":
            resume = store.latest()
        cluster.resilience = ResilienceService(
            cluster, every=checkpoint_every, store=store, resume=resume
        )
    backend_cls = BACKENDS[backend]

    def wrapper(ctx, **kwargs):
        be = backend_cls(ctx, backend_options)
        img = Image(ctx, be)
        ctx.cluster.shared("caf-images", dict)[ctx.rank] = img
        return program(img, **kwargs)

    try:
        results = cluster.run(
            wrapper, program_kwargs=dict(program_kwargs), deadline=deadline
        )
    except Exception as exc:
        # The run died (fault-induced hang, crash surfacing as an error, a
        # program bug). Stamp the cluster onto the exception so resilience
        # drivers can read the failure log, and still emit a (partial)
        # observability artifact for post-mortem triage.
        cluster.elapsed = cluster.engine.now
        exc.caf_cluster = cluster  # type: ignore[attr-defined]
        if recording:
            # A failed run has no meaningful makespan; drop the recording
            # rather than persist a trace that cannot validate.
            _ir_record.abort()
        if captured:
            _capture.emit(
                cluster,
                backend=backend,
                app=getattr(program, "__name__", ""),
                failure=exc,
                index=run_index,
            )
        raise
    if recording:
        _ir_record.emit(
            cluster, backend=backend, app=getattr(program, "__name__", ""),
            index=run_index,
        )
    if captured:
        _capture.emit(
            cluster, backend=backend, app=getattr(program, "__name__", ""),
            index=run_index,
        )
    return CafRun(
        cluster=cluster,
        results=results,
        backend=backend,
        elapsed=cluster.elapsed,
    )
