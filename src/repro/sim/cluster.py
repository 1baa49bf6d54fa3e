"""The simulated cluster: spawns one image per rank and runs a program.

A *program* is a plain Python callable ``program(ctx, **kwargs)`` executed
once per rank. ``ctx`` (:class:`RankCtx`) bundles the rank's process handle
with the shared engine, fabric, profiler, memory meter and a deterministic
RNG. Communication layers attach shared per-run state (e.g. the MPI world)
through :meth:`Cluster.shared`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.sim import costs as _costs
from repro.sim import irhook as _irhook
from repro.sim.engine import Engine, Proc
from repro.sim.memory import MemoryMeter
from repro.sim.network import MachineSpec, NetFabric
from repro.sim.profiler import Profiler, _Region
from repro.sim.trace import Tracer
from repro.util.errors import DeadlockError, SimTimeoutError, SimulationError
from repro.util.rng import rank_rng

if TYPE_CHECKING:
    from repro.sim.faults import FaultPlan


class RankCtx:
    """Everything one simulated image needs: identity, clock, costs, RNG."""

    def __init__(self, cluster: "Cluster", rank: int, proc: Proc):
        self.cluster = cluster
        self.rank = rank
        self.nranks = cluster.nranks
        self.proc = proc
        self.engine = cluster.engine
        self.fabric = cluster.fabric
        self.spec = cluster.spec
        self.prices = cluster.prices
        self.profiler = cluster.profiler
        self.memory = cluster.memory
        # Fixed at cluster construction; cached so per-op sanitizer and
        # metrics guards are one attribute load instead of two.
        self.sanitizer = cluster.sanitizer
        self.metrics = cluster.metrics
        self.rng = rank_rng(cluster.seed, rank)

    # -- time -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    def compute(
        self,
        seconds: float | None = None,
        *,
        flops: float | None = None,
        category: str = "computation",
    ) -> None:
        """Charge modeled compute time to this rank's virtual clock."""
        if (seconds is None) == (flops is None):
            raise SimulationError("pass exactly one of seconds= or flops=")
        if seconds is None:
            _costs.charge(self, "flops", flops, category=category)
        else:
            # Literal seconds are spec-independent by definition.
            self.profiler.sleep_in(self.rank, self.proc, category, seconds)

    def profile(self, category: str, kind: str | None = None, nbytes: int = 0):
        """``Profiler.region`` of this rank, built here: a CAF op opens one."""
        return _Region(self.profiler, self.rank, category, kind, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankCtx rank={self.rank}/{self.nranks}>"


class Cluster:
    """A fixed-size simulated machine plus the services layers share."""

    def __init__(
        self,
        nranks: int,
        spec: MachineSpec,
        *,
        seed: int = 12345,
        faults: FaultPlan | None = None,
        reliable: bool = False,
        sanitize: bool = False,
        metrics: bool = False,
        live: Any | None = None,
        live_interval: float | None = None,
    ):
        if nranks <= 0:
            raise SimulationError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.spec = spec
        #: The cost table priced for this run (``repro.sim.costs``).
        self.prices = _costs.PricedTable(spec, nranks)
        self.seed = seed
        self.engine = Engine()
        self.tracer = Tracer()
        self.fabric = NetFabric(self.engine, nranks, spec, tracer=self.tracer)
        self.profiler = Profiler(self.engine, nranks, tracer=self.tracer)
        self.memory = MemoryMeter(nranks)
        #: The run's contexts: rank ``r``'s at index ``r``, then those of
        #: progress agents (:class:`~repro.sim.agent.WorkerAgent`).
        self.ctxs: list[RankCtx] = []
        self._shared: dict[Any, Any] = {}
        self.elapsed = 0.0  # virtual makespan after run()
        #: Labels the run's artifacts print (``run_caf`` sets both; a bare
        #: cluster's ``app`` defaults to its program's name in :meth:`run`).
        self.backend: str | None = None
        self.app: str | None = None
        #: World ranks whose image has crashed (via an injected fault) or
        #: been declared dead (transport give-up). Failure-notification
        #: layers (ULFM-style MPI errors, CAF ``failed_images``) read this.
        self.failed_ranks: set[int] = set()
        self.fabric.failed_ranks = self.failed_ranks  # shared: dead NICs go silent
        #: Scheduler-context callbacks invoked once per failed rank, after
        #: it enters ``failed_ranks`` — ULFM layers register here to fail
        #: pending operations that involve the dead rank.
        self.failure_listeners: list[Callable[[int], None]] = []
        #: ``[{"rank", "time", "reason"}, ...]`` in failure order.
        self.failure_log: list[dict[str, Any]] = []
        self.faults = faults
        if faults is not None:
            faults.check_ranks(nranks)
            self.fabric.faults = faults
        if reliable:
            from repro.sim.reliable import ReliableTransport

            self.fabric.reliable = ReliableTransport(
                self.fabric, rng=rank_rng(seed, 0, "reliable")
            )
            self.fabric.reliable.on_give_up = self._on_transport_give_up
        # The one place a process-wide capture is consulted: explicit
        # arguments arm this cluster, and so does whatever the capture asks.
        from repro.obs import capture as _capture

        self.arming = arming = _capture.arm(self)
        if arming is not None:
            sanitize = sanitize or arming.sanitize
            metrics = metrics or arming.metrics
            if live is None and arming.live is not None:
                live = arming.live
                if live_interval is None:
                    live_interval = arming.live_interval
            if arming.trace:
                self.tracer.enable()
        self.sanitizer = None
        if sanitize:
            from repro.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(nranks, self.engine)
            self.engine.sanitizer = self.sanitizer
            self.fabric.sanitizer = self.sanitizer
        #: Op-level metrics + P x P traffic accounting (None = zero-cost
        #: off state; every instrumented site guards on a cached handle).
        self.metrics = None
        self.comm_matrix = None
        if metrics:
            from repro.obs.metrics import CommMatrix, Metrics

            self.metrics = self.profiler.metrics = Metrics(nranks)
            self.comm_matrix = CommMatrix(nranks)
            self.fabric.comm_matrix = self.comm_matrix
        #: Live telemetry tap (None = zero-cost off state; the engine's
        #: resume path guards on a cached handle, like the sanitizer).
        #: ``live`` is a :class:`~repro.obs.live.LiveTelemetry` or a path.
        self.telemetry = None
        if live is not None:
            from repro.obs.live import LiveTelemetry

            tel = (
                live
                if isinstance(live, LiveTelemetry)
                else LiveTelemetry(live, interval_s=live_interval)
            )
            self.telemetry = tel
            self.engine.telemetry = tel
            tel.attach(self)

    def shared(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Get-or-create a cross-rank singleton (e.g. the MPI world). One
        with an ``_end_run()`` method is ended with the run (:meth:`_end_run`)."""
        if key not in self._shared:
            self._shared[key] = factory()
        return self._shared[key]

    def _crash_rank(self, rank: int) -> None:
        """Scheduler-context delivery of an injected image crash."""
        self._fail_rank(rank, "crash", kill=True)

    def declare_failed(self, rank: int, *, reason: str = "declared") -> None:
        """Mark ``rank`` failed without killing its process.

        This is the transport-level suspicion path: the rank may in fact
        be alive (e.g. every ack was lost), but the system treats it as
        dead — its NIC is blackholed and peers' operations on it raise
        ``ImageFailedError``/``MpiProcFailedError``, exactly as for a real
        crash.
        """
        self._fail_rank(rank, reason, kill=False)

    def _fail_rank(self, rank: int, reason: str, *, kill: bool) -> None:
        """``rank`` enters the failed set and the log (once); with ``kill``
        its process dies; then every failure listener hears of it."""
        if rank in self.failed_ranks:
            return
        self.failed_ranks.add(rank)
        self.failure_log.append({"rank": rank, "time": self.engine.now, "reason": reason})
        if kill:
            self.ctxs[rank].proc._crash()
        for listener in list(self.failure_listeners):
            listener(rank)

    def _on_transport_give_up(self, src: int, dst: int) -> None:
        self.declare_failed(
            dst,
            reason=(
                f"transport: rank {src} exhausted retransmissions to "
                f"rank {dst} with no ack"
            ),
        )

    def _annotate_failure(self, exc: Exception) -> None:
        """Stamp watchdog/deadlock errors with the failed-image set and,
        when the live tap is armed, a last telemetry snapshot — so a hung
        4096-rank run dies with a progress trail, not just call sites."""
        exc.failed_ranks = sorted(self.failed_ranks)  # type: ignore[attr-defined]
        if self.failed_ranks and exc.args:
            exc.args = (
                f"{exc.args[0]}; failed images: {sorted(self.failed_ranks)}",
            ) + exc.args[1:]
        tel = self.telemetry
        if tel is not None:
            # The engine has already unwound the fibers, so the proc-state
            # walk would read every rank as done; the error's own watchdog
            # bookkeeping says who actually died blocked where.
            exc.telemetry = tel.capture_now(  # type: ignore[attr-defined]
                outcome="failed",
                blocked=getattr(exc, "blocked", None),
                last_progress=getattr(exc, "last_progress", None),
            )
            if exc.args:
                exc.args = (
                    f"{exc.args[0]}; telemetry: {tel.describe_last()}",
                ) + exc.args[1:]

    def _end_run(self) -> None:
        """Cut the back-edges through the cluster when a run ends, so a
        finished run is acyclic and reference counting frees it. The
        contexts let go of the cluster (the layers' state in :meth:`shared`
        reaches them), the failure listeners and the reliable transport's
        hooks go, and each shared singleton with an ``_end_run`` ends its
        own links.
        What a caller reads after a run stays: results, meters,
        ``failure_log``, ``failed_ranks``, :meth:`shared` outputs."""
        for ctx in self.ctxs:
            ctx.cluster = None
        self.failure_listeners.clear()
        reliable = self.fabric.reliable
        if reliable is not None:
            reliable.fabric = reliable.on_give_up = None
        for state in self._shared.values():
            end = getattr(state, "_end_run", None)
            if end is not None:
                end()

    def run(
        self,
        program: Callable[..., Any],
        *,
        program_kwargs: dict[str, Any] | None = None,
        deadline: float | None = None,
    ) -> list[Any]:
        """Run ``program(ctx, **kwargs)`` on every rank; returns per-rank results.

        ``deadline`` arms the engine watchdog (see :meth:`Engine.run`).
        """
        kwargs = program_kwargs or {}
        if self.app is None:
            self.app = getattr(program, "__name__", None)

        def make_target(rank: int) -> Callable[[Proc], Any]:
            def target(proc: Proc) -> Any:
                ctx = self.ctxs[rank]
                return program(ctx, **kwargs)

            return target

        arming = self.arming
        recorder = arming.recorder(self) if arming is not None else None
        if recorder is not None:
            if _irhook.RECORDER is not None:
                raise SimulationError(
                    "an IR recording is already attached: recorded runs do not nest"
                )
            # Installed for exactly this run: the finally below detaches it
            # on every exit path, so a recorder cannot outlive its run.
            _irhook.RECORDER = recorder
        self.fabric._fix_hooks()
        failure: BaseException | None = None
        try:
            rank_procs = []
            for rank in range(self.nranks):
                proc = self.engine.spawn(make_target(rank), name=f"rank{rank}")
                rank_procs.append(proc)
                self.ctxs.append(RankCtx(self, rank, proc))
            if self.faults is not None:
                for rank, when in self.faults.crashes:
                    self.engine.call_at(when, lambda r=rank: self._crash_rank(r))
            self.engine.run(deadline=deadline)
        except BaseException as exc:
            failure = exc
            if isinstance(exc, (DeadlockError, SimTimeoutError)):
                self._annotate_failure(exc)
            raise
        finally:
            if recorder is not None:
                _irhook.RECORDER = None
            # The makespan, or the time of death.
            self.elapsed = self.engine.now
            if self.telemetry is not None:
                # Final snapshot + stream close on every exit path (the
                # failure path may already have emitted it via
                # _annotate_failure; close() is idempotent about that).
                self.telemetry.close(outcome="ok" if failure is None else "failed")
            if self.sanitizer is not None and failure is None:
                self.sanitizer.finalize()
            if arming is not None:
                arming.finish(self, recorder, failure)
            self._end_run()
            # This frame rides on the failure's traceback: holding the
            # failure here too would make the pair a cycle.
            failure = None
        # Only the rank programs' results — libraries may have spawned
        # daemon agents whose results are not the application's. They pass
        # to the caller: one that reaches its context would otherwise close
        # a cycle through the engine's process table.
        results = []
        for proc in rank_procs:
            results.append(proc.result)
            proc.result = None
        return results


def run_program(
    program: Callable[..., Any],
    nranks: int,
    spec: MachineSpec | None = None,
    *,
    seed: int = 12345,
    **program_kwargs: Any,
) -> tuple[Cluster, list[Any]]:
    """Convenience: build a cluster, run ``program`` on every rank, return both."""
    if spec is None:
        spec = MachineSpec(name="generic")
    cluster = Cluster(nranks, spec, seed=seed)
    results = cluster.run(program, program_kwargs=dict(program_kwargs))
    return cluster, results
