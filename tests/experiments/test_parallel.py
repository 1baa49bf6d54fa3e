"""Run-level parallelism: spawn-safe workers return the run's fingerprints."""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.parallel import WORKER_APPS, run_app_config
from repro.util.errors import SimulationError

CONFIGS = {
    "randomaccess": dict(
        nranks=8,
        kwargs=dict(table_bits_per_image=6, updates_per_image=64, batches=2),
    ),
    "hpl": dict(nranks=4, kwargs=dict(n=64, block=16)),
}


def _worker_config(app):
    return {
        "app": app,
        "backend": "mpi",
        "env": {"REPRO_SIM_DIGEST": "1"},
        **CONFIGS[app],
    }


def test_worker_apps_cover_the_four_paper_apps():
    assert sorted(WORKER_APPS) == ["cgpop", "fft", "hpl", "randomaccess"]
    with pytest.raises(SimulationError, match="unknown worker app"):
        run_app_config({"app": "nbody", "nranks": 2})


@pytest.mark.parametrize("app", sorted(CONFIGS))
def test_run_app_config_in_process(monkeypatch, app):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    out = run_app_config(_worker_config(app))
    again = run_app_config(_worker_config(app))
    assert out["app"] == app and out["nranks"] == CONFIGS[app]["nranks"]
    assert out["digest"] is not None and out["events"] > 0
    assert out["makespan"] > 0 and out["wall_s"] > 0
    assert 0 < out["peak_rss_mb"] <= again["peak_rss_mb"]
    assert out["figures"]["nranks"] == out["nranks"]
    if out["fiber_cpu"] is not None:
        assert out["fiber_cpu"] in os.sched_getaffinity(0)
    for key in ("digest", "makespan", "events", "profiler_totals", "figures"):
        assert out[key] == again[key], key


@pytest.fixture(scope="module")
def pooled_run():
    """Exercise the real spawn path in a subprocess-driven pool, once.

    Each worker is a fresh interpreter, results come back in input order,
    and the script itself asserts that the fingerprints match an in-process
    run bit-for-bit; its last line is the pooled summaries as JSON.
    """
    code = (
        "import json\n"
        "from tests.experiments.test_parallel import CONFIGS, _worker_config\n"
        "from repro.experiments.parallel import run_app_config, run_configs_parallel\n"
        "configs = [_worker_config(app) for app in sorted(CONFIGS)] * 2\n"
        "pooled = run_configs_parallel(configs, processes=2)\n"
        "assert [r['app'] for r in pooled] == sorted(CONFIGS) * 2, pooled\n"
        "for cfg, got in zip(configs, pooled):\n"
        "    here = run_app_config(cfg)\n"
        "    for key in ('digest', 'makespan', 'events', 'profiler_totals'):\n"
        "        assert got[key] == here[key], (cfg['app'], key)\n"
        "print('spawn-ok')\n"
        "print(json.dumps(pooled))\n"
    )
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root,
        capture_output=True, text=True, timeout=300,
    )


def test_run_configs_parallel_across_processes(pooled_run):
    assert pooled_run.returncode == 0, pooled_run.stderr
    assert "spawn-ok" in pooled_run.stdout


def test_pool_workers_confine_their_fibers_to_distinct_cpus(pooled_run):
    """Every engine confines its fibers to one CPU of its caller's mask;
    two workers left to choose for themselves can pick the same one and
    both run at half speed. The pool deals the parent's CPUs out instead."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs an affinity mask of two or more CPUs")
    assert pooled_run.returncode == 0, pooled_run.stderr
    cpu_of_worker = {
        r["pid"]: r["fiber_cpu"] for r in json.loads(pooled_run.stdout.splitlines()[-1])
    }
    if len(cpu_of_worker) < 2:
        pytest.skip("one worker ran every config before the other had started")
    cpus = list(cpu_of_worker.values())
    assert None not in cpus and len(set(cpus)) == len(cpus), cpu_of_worker
