"""Per-layer self time, taken from outside by wrapping each layer's public
functions at class or module level.

Exactly one fiber holds the engine's baton at a time, so one global
attribution clock is enough: at every wrapper entry or exit the time since
the previous boundary is charged to the op that was current, then the
current op becomes the top of the *calling fiber's* span stack. The time
between fiber A entering ``Proc.block`` and fiber B returning from its own
is therefore charged to ``sim.engine`` — dispatch, the switch, and any
delivery callback the dispatcher ran inline (callbacks are closures and
cannot be wrapped from outside; ``bench/README.md`` names this blind spot).

Self time is kept per op, so a layer's total is the sum over its ops and a
span nested in another span of the same layer is never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types

try:  # the engine's optional second substrate: fibers are then greenlets
    from greenlet import getcurrent as _fiber
except ImportError:
    _fiber = threading.get_ident

LAYERS = (
    "sim.engine", "sim.network", "mpi", "gasnet", "caf", "apps",
    "obs", "ir", "sanitizer", "lint", "experiments",
)
#: Time on a fiber with no open span: harness code, ``Cluster``/backend
#: construction glue between wrapped calls, thread start-up.
OTHER = "other"
#: Spans kept verbatim per traced run; later ones only feed the aggregates.
SPAN_CAP = 200_000

_ALL = None  # wrap every public plain function the class defines

#: layer -> (module, class or None for module-level functions, names).
TARGETS: dict[str, list[tuple[str, str | None, tuple[str, ...] | None]]] = {
    "sim.engine": [
        ("repro.sim.engine", "Proc", ("sleep", "block", "wake")),
        ("repro.sim.engine", "Engine", ("spawn", "run", "call_at", "call_in")),
        ("repro.sim.sync", "SimEvent", _ALL),
        ("repro.sim.sync", "Counter", _ALL),
        ("repro.sim.sync", "Channel", _ALL),
        ("repro.sim.cluster", "Cluster", ("__init__", "run")),
    ],
    "sim.network": [("repro.sim.network", "NetFabric", ("transfer", "send"))],
    "mpi": [
        ("repro.mpi.comm", "Comm", _ALL),
        ("repro.mpi.window", "Window", _ALL),
        ("repro.mpi.request", "Request", _ALL),
        ("repro.mpi.world", "MpiRank", _ALL),
    ],
    "gasnet": [
        ("repro.gasnet.core", "GasnetRank", _ALL),
        ("repro.gasnet.collectives", "TeamExchange", _ALL),
    ],
    "caf": [
        ("repro.caf.program", None, ("run_caf",)),
        ("repro.caf.image", "Image", _ALL),
        ("repro.caf.coarray", "Coarray", _ALL),
        ("repro.caf.events", "EventArray", _ALL),
        ("repro.caf.finish", "FinishBlock", _ALL),
        ("repro.caf.backend", "RuntimeBackend", _ALL),
        ("repro.caf.backends.mpi_backend", "MpiBackend", _ALL),
        ("repro.caf.backends.gasnet_backend", "GasnetBackend", _ALL),
    ],
    "apps": [
        ("repro.apps.randomaccess", None, ("run_randomaccess",)),
        ("repro.apps.fft", None, ("run_fft",)),
        ("repro.apps.hpl", None, ("run_hpl",)),
        ("repro.apps.cgpop", None, ("run_cgpop",)),
    ],
    "obs": [
        ("repro.obs.metrics", "Metrics", ("record",)),
        ("repro.obs.metrics", "CommMatrix", ("record",)),
        ("repro.obs.report", None, ("build_report",)),
    ],
    "ir": [
        ("repro.ir.record", "Recorder", _ALL),
        ("repro.ir.replay", "CompiledTrace", _ALL),
        ("repro.ir.sweep", None, ("run_sweep",)),
    ],
    "sanitizer": [("repro.sanitizer.core", "Sanitizer", _ALL)],
    "lint": [("repro.lint.engine", None, ("lint_paths",))],
    "experiments": [
        (f"repro.experiments.{mod}", None, ("run",))
        for mod in (
            "fig03_ra_fusion", "fig04_ra_breakdown", "fig05_ra_edison",
            "fig06_fft_fusion", "fig07_fft_edison", "fig08_fft_breakdown",
            "fig09_hpl_fusion", "fig10_hpl_edison", "fig11_cgpop_fusion",
            "fig12_cgpop_edison",
        )
    ],
}
#: Constructors that do a layer's real work (compile, backend bring-up).
_CONSTRUCTED = {"CompiledTrace", "MpiBackend", "GasnetBackend", "FinishBlock"}

#: Hot-op metric prefix -> the wrapped ops (``Class.method``) it sums.
HOT_OPS = {
    "sim.engine.sleep": ("Proc.sleep",),
    "sim.engine.block": ("Proc.block",),
    "sim.network.transfer": ("NetFabric.transfer",),
    "mpi.rput": ("Window.rput",),
    "mpi.flush_all": ("Window.flush_all",),
    "mpi.alltoall": ("Comm.alltoall",),
    "gasnet.put_nb": ("GasnetRank.put_nb",),
    "gasnet.am_request": (
        "GasnetRank.am_request_short",
        "GasnetRank.am_request_medium",
        "GasnetRank.am_request_long",
    ),
    "gasnet.poll": ("GasnetRank.poll",),
    "caf.coarray_write": ("MpiBackend.coarray_write", "GasnetBackend.coarray_write"),
    "caf.event_notify": ("MpiBackend.event_notify", "GasnetBackend.event_notify"),
    "caf.event_wait": ("MpiBackend.event_wait", "RuntimeBackend.event_wait"),
}


class Tracer:
    """The attribution clock plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.ops: list[tuple[str, str]] = [(OTHER, OTHER)]  # index -> (layer, name)
        self.self_s = [0.0]
        self.calls = [0]
        #: ``(span id, op index, start, end, parent span id or -1)``.
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._state = [0, clock(), 0]  # current op, last boundary, next span id
        self._stacks: dict[object, list[tuple[int, int, float]]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- the clock -------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        """``fn`` with a span of op ``layer``/``name`` around every call."""
        op = len(self.ops)
        self.ops.append((layer, name))
        self.self_s.append(0.0)
        self.calls.append(0)
        state, self_s, calls = self._state, self.self_s, self.calls
        stacks, spans, clock = self._stacks, self.spans, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = clock()
            self_s[state[0]] += now - state[1]
            fiber = _fiber()
            stack = stacks.get(fiber)
            if stack is None:
                stack = stacks[fiber] = []
            span = state[2]
            stack.append((op, span, now))
            calls[op] += 1
            state[0], state[1], state[2] = op, now, span + 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[state[0]] += now - state[1]
                _, span, start = stack.pop()
                state[0] = stack[-1][0] if stack else 0
                state[1] = now
                if span < SPAN_CAP:
                    spans.append((span, op, start, now, stack[-1][1] if stack else -1))

        return wrapper

    def reset(self) -> None:
        """Forget everything measured so far (call with no span open)."""
        for i in range(len(self.ops)):
            self.self_s[i] = 0.0
            self.calls[i] = 0
        self.spans.clear()
        self._state[:] = [0, self._clock(), 0]

    def stop(self) -> None:
        """Charge the time since the last boundary; call before reading."""
        now = self._clock()
        self.self_s[self._state[0]] += now - self._state[1]
        self._state[1] = now

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`. Import what the workload
        imports *after* this, or rely on the alias pass below, which only
        reaches modules that are already loaded."""
        for layer, targets in TARGETS.items():
            for modname, clsname, names in targets:
                module = importlib.import_module(modname)
                owner = getattr(module, clsname) if clsname else module
                if names is None:
                    names = tuple(
                        n for n, v in vars(owner).items()
                        if isinstance(v, types.FunctionType)
                        and (not n.startswith("_") or n in ("__enter__", "__exit__"))
                    )
                    if clsname in _CONSTRUCTED:
                        names += ("__init__",)
                for name in names:
                    original = vars(owner)[name]
                    label = f"{clsname}.{name}" if clsname else name
                    wrapped = self.wrap(original, layer, label)
                    self._patch(owner, name, wrapped)
                    if clsname is None:
                        self._patch_aliases(original, wrapped, module)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_aliases(self, original, wrapped, home) -> None:
        """``from x import fn`` copies made before install still point at
        ``original``; repoint the ones in this repo's own modules."""
        for modname, module in list(sys.modules.items()):
            if module is home or not modname.startswith(("repro", "benchmarks")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapped)

    def restore(self) -> None:
        """Undo :meth:`install`, newest patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- reading ---------------------------------------------------------

    def by_op(self) -> dict[str, dict[str, dict[str, float]]]:
        """``layer -> op -> {self_s, calls}`` for every op that ran."""
        out: dict[str, dict[str, dict[str, float]]] = {}
        for (layer, name), self_s, calls in zip(self.ops, self.self_s, self.calls):
            if calls or self_s:
                out.setdefault(layer, {})[name] = {"self_s": self_s, "calls": calls}
        return out

    def metrics(self) -> dict[str, float]:
        """The ``<layer>.self_s`` / ``.calls`` and hot-op rows."""
        ops = self.by_op()
        out: dict[str, float] = {}
        for layer in LAYERS:
            rows = ops.get(layer, {}).values()
            out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
            out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        out[f"{OTHER}.self_s"] = ops.get(OTHER, {}).get(OTHER, {}).get("self_s", 0.0)
        for prefix, names in HOT_OPS.items():
            layer = prefix.rsplit(".", 1)[0]
            rows = [ops.get(layer, {}).get(n) for n in names]
            out[f"{prefix}.self_s"] = sum(r["self_s"] for r in rows if r)
            out[f"{prefix}.calls"] = sum(r["calls"] for r in rows if r)
        return out

    def dump_spans(self) -> dict:
        """The kept spans in a compact, JSON-ready form: times are whole
        microseconds since the first span began."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        return {
            "columns": ["id", "op", "start_us", "end_us", "parent"],
            "ops": [f"{layer}:{name}" for layer, name in self.ops],
            "spans_total": self._state[2],
            "spans": [
                (sid, op, int((start - t0) * 1e6), int((end - t0) * 1e6), parent)
                for sid, op, start, end, parent in self.spans
            ],
        }
