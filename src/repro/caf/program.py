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

import importlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.caf.image import Image
from repro.sim.cluster import Cluster
from repro.sim.memory import MemoryMeter
from repro.sim.network import MachineSpec, NetFabric
from repro.sim.profiler import Profiler
from repro.util.errors import CafError

if TYPE_CHECKING:
    from repro.sim.faults import FaultPlan

#: Backend name -> the module and class that implement it. A run imports
#: only the one it asks for, so a CAF-MPI run never loads ``repro.gasnet``.
BACKENDS = {
    "mpi": ("repro.caf.backends.mpi_backend", "MpiBackend"),
    "gasnet": ("repro.caf.backends.gasnet_backend", "GasnetBackend"),
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
    max_recoveries: int = 0,
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
    a path (or a prebuilt tap object from that module) to which
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
    ``max_recoveries=N`` (also attaching the service) lets a resilient
    program's survivors shrink and recover in place up to N times; with 0 a
    failure ends the run, for ``run_resilient`` to restart it.

    Whatever the process has armed for every run (``--metrics DIR``,
    ``--record-ir``, the sanitizer CLI) arms this one too, in ``Cluster``.

    When the run fails — a fault-induced hang, a crash surfacing as an
    error, a program bug — the raised exception carries the half-built
    cluster as ``exc.caf_cluster`` (with ``elapsed`` set to the time of
    death), and a process that collects RunReports still gets a partial
    one with ``meta.outcome == "failed"`` plus the failure record.
    """
    if backend not in BACKENDS:
        raise CafError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    spec = spec or MachineSpec(name="generic")
    cluster = Cluster(
        nranks, spec, seed=sim_seed, faults=faults, reliable=reliable,
        sanitize=sanitize, metrics=metrics, live=live, live_interval=live_interval,
    )
    cluster.backend = backend
    cluster.app = getattr(program, "__name__", "")
    if trace:
        cluster.tracer.enable()
    if max_recoveries or any(
        arg is not None for arg in (checkpoint_every, checkpoint_store, resume_from)
    ):
        from repro.resilience.checkpoint import CheckpointStore, ResilienceService

        store = checkpoint_store if checkpoint_store is not None else CheckpointStore()
        resume = store.latest() if resume_from == "latest" else resume_from
        cluster.resilience = ResilienceService(
            every=checkpoint_every, store=store, resume=resume,
            max_recoveries=max_recoveries,
        )
    module, clsname = BACKENDS[backend]
    backend_cls = getattr(importlib.import_module(module), clsname)

    def wrapper(ctx, **kwargs):
        be = backend_cls(ctx, backend_options)
        img = Image(ctx, be)
        ctx.cluster.shared("caf-images", dict)[ctx.rank] = img
        return program(img, **kwargs)

    try:
        results = cluster.run(wrapper, program_kwargs=dict(program_kwargs), deadline=deadline)
    except Exception as exc:
        # The run died (fault-induced hang, crash surfacing as an error, a
        # program bug). Stamp the cluster onto the exception so resilience
        # drivers can read the failure log.
        exc.caf_cluster = cluster  # type: ignore[attr-defined]
        raise
    finally:
        for img in cluster.shared("caf-images", dict).values():
            img.backend._end_run()
    return CafRun(cluster=cluster, results=results, backend=backend, elapsed=cluster.elapsed)
