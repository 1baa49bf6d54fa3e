"""Run-level parallelism: whole app configurations across OS processes.

One simulated run is a single shared object graph (coarrays, AM boards,
delivery closures) dispatched by one engine on one core. The multi-core
story is therefore at the *run* level: :func:`run_app_config` builds and
runs a complete configuration from a picklable dict, and
:func:`run_configs_parallel` fans a batch of such configurations out
across OS worker processes (``multiprocessing`` spawn context, one fresh
interpreter per config) — a figure's sweep points, a benchmark's scales.

Everything here must stay importable at module top level (the spawn start
method pickles ``run_app_config`` by qualified name) and must only
exchange plain JSON-able dicts with the parent.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import os
import resource
import time

from repro.caf.program import run_caf
from repro.platforms import PLATFORMS
from repro.sim.network import MachineSpec
from repro.util.errors import SimulationError

#: Apps the worker can run, resolved by name so configs stay picklable.
WORKER_APPS = {
    "randomaccess": ("repro.apps.randomaccess", "run_randomaccess"),
    "fft": ("repro.apps.fft", "run_fft"),
    "hpl": ("repro.apps.hpl", "run_hpl"),
    "cgpop": ("repro.apps.cgpop", "run_cgpop"),
}


def run_app_config(config: dict) -> dict:
    """Run one app configuration and return a JSON-able summary.

    ``config`` keys: ``app`` (a :data:`WORKER_APPS` name), ``nranks``,
    optional ``backend`` (default ``mpi``), ``platform`` (a
    :mod:`repro.platforms` name; default the generic spec), ``kwargs``
    (forwarded to the app), and ``env`` (environment overrides such as
    ``REPRO_SIM_DIGEST`` — applied to this process, which is why this
    function is meant for spawn workers; in-process callers should set the
    environment themselves).

    The summary carries the determinism fingerprints: the ``order_digest``,
    the virtual makespan (exact — floats survive pickling bit-for-bit),
    the executed event count and the profiler totals. It also reports
    ``wall_s`` (measured in-child around the run itself, so a
    spawn-per-measurement benchmark sees neither interpreter start-up nor
    any state accumulated by earlier runs), ``figures`` (the scalar
    fields of the rank-0 app result, e.g. GUPS or GFLOP/s) and
    ``pid`` with ``fiber_cpu`` (the host CPU the engine confined the
    run's fibers to, ``None`` if it could not — two processes reporting one
    CPU for overlapping runs shared it, and each ran at about half speed).
    ``peak_rss_mb`` is the process's peak resident set so far
    (``ru_maxrss``): the run's own peak when the worker ran nothing before.
    """
    for key, value in config.get("env", {}).items():
        os.environ[key] = value
    app_name = config["app"]
    if app_name not in WORKER_APPS:
        raise SimulationError(
            f"unknown worker app {app_name!r}; choose from {sorted(WORKER_APPS)}"
        )
    mod_name, fn_name = WORKER_APPS[app_name]
    app = getattr(importlib.import_module(mod_name), fn_name)
    platform = config.get("platform")
    spec = MachineSpec(name="generic") if platform is None else PLATFORMS[platform]
    backend = config.get("backend", "mpi")
    t0 = time.perf_counter()
    run = run_caf(
        app, config["nranks"], spec, backend=backend, **config.get("kwargs", {})
    )
    wall = time.perf_counter() - t0
    engine = run.cluster.engine
    figures = {
        key: value
        for key, value in dataclasses.asdict(run.results[0]).items()
        if isinstance(value, (int, float))
    }
    return {
        "app": app_name,
        "nranks": config["nranks"],
        "backend": backend,
        "digest": engine.order_digest(),
        "makespan": run.elapsed,
        "wall_s": wall,
        "figures": figures,
        "events": engine.events_executed,
        "pid": os.getpid(),
        "fiber_cpu": engine.fiber_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "profiler_totals": {
            cat: run.profiler.total(cat) for cat in run.profiler.categories()
        },
    }


def _claim_cpu(allowed: list[int], claimed) -> None:
    """Pool initializer: confine worker *i* to ``allowed[i % len(allowed)]``.

    Every engine confines its fibers to one CPU of its caller's mask (the
    CPU the caller happens to be on, when there are several), so two
    workers left to choose for themselves can pick the same one and each
    run at half speed. A one-CPU mask leaves nothing to chance.
    """
    with claimed.get_lock():
        index = claimed.value
        claimed.value += 1
    os.sched_setaffinity(0, {allowed[index % len(allowed)]})


def run_configs_parallel(
    configs: list[dict], *, processes: int | None = None
) -> list[dict]:
    """Run configurations across OS worker processes (spawn context).

    Workers are fresh interpreters, so the parent's environment overrides
    and engine state never leak into a run — and on a multi-core host the
    batch genuinely executes in parallel: each worker gets its own CPU of
    the parent's affinity mask (round-robin when there are more workers
    than CPUs). Results come back in input order.
    """
    if not configs:
        return []
    nproc = processes or min(len(configs), os.cpu_count() or 1)
    ctx = multiprocessing.get_context("spawn")
    placement: dict = {}
    if hasattr(os, "sched_setaffinity"):
        placement = dict(
            initializer=_claim_cpu,
            initargs=(sorted(os.sched_getaffinity(0)), ctx.Value("i", 0)),
        )
    with ctx.Pool(processes=max(1, nproc), **placement) as pool:
        return pool.map(run_app_config, configs)
