"""Run-level parallelism: spawn-safe workers return the run's fingerprints."""

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
    assert out["figures"]["nranks"] == out["nranks"]
    for key in ("digest", "makespan", "events", "profiler_totals", "figures"):
        assert out[key] == again[key], key


def test_run_configs_parallel_across_processes():
    # Exercise the real spawn path in a subprocess-driven pool: each config
    # runs in its own fresh interpreter, results come back in input order,
    # and the fingerprints match an in-process run bit-for-bit.
    code = (
        "import json\n"
        "from tests.experiments.test_parallel import CONFIGS, _worker_config\n"
        "from repro.experiments.parallel import run_app_config, run_configs_parallel\n"
        "configs = [_worker_config(app) for app in sorted(CONFIGS)]\n"
        "pooled = run_configs_parallel(configs, processes=2)\n"
        "assert [r['app'] for r in pooled] == sorted(CONFIGS), pooled\n"
        "for cfg, got in zip(configs, pooled):\n"
        "    here = run_app_config(cfg)\n"
        "    for key in ('digest', 'makespan', 'events', 'profiler_totals'):\n"
        "        assert got[key] == here[key], (cfg['app'], key)\n"
        "print('spawn-ok')\n"
    )
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "spawn-ok" in proc.stdout
