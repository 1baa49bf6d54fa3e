"""Wall-clock performance harness: how fast the host executes simulations.

Unlike the figure benchmarks (which regenerate *virtual-time* results),
this module measures *host* wall-clock throughput of the simulator itself
and writes ``BENCH_wallclock.json`` at the repo root:

* ``ra_update_microbench`` — the RandomAccess update loop on a single
  image with per-update virtual-time accounting. One runnable process,
  so every ``sleep`` takes the inline clock advance (zero context
  switches, zero heap traffic): the bare scheduler's events/s.
* ``ra_app`` — full RandomAccess runs (both backends, several rank
  counts). Cross-rank event interleaving forces a real thread handoff
  for most events (3-7us each on the reference container, one context
  switch; see docs/architecture.md), which is what separates these
  events/s from the microbench's.
* ``apps`` — absolute wall times for RA/FFT/HPL/CGPOP at fixed ranks:
  regression-tracking numbers for future PRs.
* ``ra_scale`` — RandomAccess at 512 ranks on both backends must finish
  within the harness budget.

Wall times are re-measured on every run; everything virtual (event
counts, order digests, makespans) is asserted equal to the row already
checked into ``BENCH_wallclock.json``, so the file doubles as the golden
table for these configurations. ``python3 -m bench compare`` is the tool
for A/B-ing two commits.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_wallclock.py -q
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.hpl import run_hpl
from repro.apps.randomaccess import (
    apply_updates,
    generate_updates,
    run_randomaccess,
)
from repro.caf.program import run_caf
from repro.sim.engine import Engine
from repro.sim.network import MachineSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_wallclock.json"

SPEC = MachineSpec(name="generic")
RA_KW = dict(table_bits_per_image=8, updates_per_image=1024, batches=8)

#: Wall-clock ceiling for one 512-rank RandomAccess run. Generous: the
#: reference container (single core) finishes in ~20s per backend.
SCALE_BUDGET_S = 600.0


def _load() -> dict:
    try:
        return json.loads(RESULT_PATH.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


#: The checked-in rows, read once before any test rewrites the file.
PINNED = _load()


def _assert_pinned(row: dict, pinned: dict | None, fields: tuple[str, ...]) -> None:
    """Virtual outputs must equal the checked-in row's, bit for bit."""
    if pinned is not None:
        assert {f: row[f] for f in fields} == {f: pinned[f] for f in fields}


def _merge(section: str, payload) -> None:
    """Read-modify-write one section of BENCH_wallclock.json, so the tests
    can run (or be deselected) independently."""
    data = _load()
    data.setdefault("meta", {}).update(
        python=sys.version.split()[0],
        platform=sys.platform,
        # The host's real core count AND the subset this process may use:
        # on cgroup-limited CI runners the two differ.
        cpus=os.cpu_count(),
        cpus_available=(
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
    )
    data[section] = payload
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _best_of(fn, repeats=3):
    """Minimum wall time over ``repeats`` runs (plus one discarded warm-up);
    returns (seconds, last_result)."""
    fn()
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


# ---------------------------------------------------------------------------
# RA update-loop scheduler microbench
# ---------------------------------------------------------------------------

MICRO_UPDATES = 100_000
MICRO_CHUNK = 1024
MICRO_BITS = 12


def _ra_update_loop():
    """Single-image RandomAccess with per-update virtual-time accounting.

    The table XORs are applied vectorized per chunk (as the app does), but
    each update's compute time is charged to the virtual clock individually
    — one ``sleep`` per update, the finest accounting granularity the
    simulator supports. With one runnable process this is a pure scheduler
    workload: every sleep advances the clock in place.
    """
    eng = Engine()
    table = np.zeros(1 << MICRO_BITS, np.uint64)
    updates = generate_updates(42, 0, MICRO_UPDATES, MICRO_BITS)
    per_update = SPEC.flops_time(1.0)

    def image(p):
        for lo in range(0, MICRO_UPDATES, MICRO_CHUNK):
            batch = updates[lo : lo + MICRO_CHUNK]
            apply_updates(table, batch, (1 << MICRO_BITS) - 1)
            for _ in range(batch.size):
                p.sleep(per_update)

    eng.spawn(image, name="image0")
    eng.run()
    return eng


def test_ra_update_microbench():
    wall_s, eng = _best_of(_ra_update_loop)
    row = {
        "description": "single-image RA update loop, per-update virtual accounting",
        "updates": MICRO_UPDATES,
        "events": eng.events_executed,
        "wall_s": round(wall_s, 4),
        "events_per_s": round(eng.events_executed / wall_s),
    }
    _assert_pinned(row, PINNED.get("ra_update_microbench"), ("updates", "events"))
    _merge("ra_update_microbench", row)


# ---------------------------------------------------------------------------
# Full-app RandomAccess: wall clock + pinned virtual time
# ---------------------------------------------------------------------------


def _ra_app(backend: str, nranks: int):
    os.environ["REPRO_SIM_DIGEST"] = "1"
    try:
        return run_caf(run_randomaccess, nranks, SPEC, backend=backend, **RA_KW)
    finally:
        del os.environ["REPRO_SIM_DIGEST"]


def test_ra_app_wallclock_and_virtual_time_identity():
    pinned = {(r["backend"], r["nranks"]): r for r in PINNED.get("ra_app", [])}
    rows = []
    for backend in ("mpi", "gasnet"):
        for nranks in (8, 32):
            wall_s, run = _best_of(lambda b=backend, n=nranks: _ra_app(b, n))
            eng = run.cluster.engine
            row = {
                "backend": backend,
                "nranks": nranks,
                "events": eng.events_executed,
                "wall_s": round(wall_s, 4),
                "events_per_s": round(eng.events_executed / wall_s),
                "virtual_elapsed_s": run.cluster.elapsed,
                "order_digest": eng.order_digest(),
            }
            # Wall-clock work changes how fast the host runs the schedule,
            # never which schedule runs: everything virtual must be *bit*-
            # identical to the checked-in row, not approximately equal.
            _assert_pinned(
                row,
                pinned.get((backend, nranks)),
                ("events", "virtual_elapsed_s", "order_digest"),
            )
            rows.append(row)
    _merge("ra_app", rows)


# ---------------------------------------------------------------------------
# Per-app wall times (regression tracking)
# ---------------------------------------------------------------------------


def test_app_suite_wallclock():
    hpl_spec = SPEC.with_overrides(flops_per_sec=SPEC.flops_per_sec / 40.0)
    apps = {
        "randomaccess": lambda: run_caf(
            run_randomaccess, 16, SPEC, backend="mpi", **RA_KW
        ),
        "fft": lambda: run_caf(run_fft, 16, SPEC, backend="mpi", m=1 << 14),
        "hpl": lambda: run_caf(
            run_hpl, 16, hpl_spec, backend="mpi", n=256, block=16
        ),
        "cgpop": lambda: run_caf(
            run_cgpop, 16, SPEC, backend="mpi",
            ny=48, nx=48, mode="push", max_iter=60, tol=0.0,
        ),
    }
    pinned = PINNED.get("apps", {})
    section = {}
    for name, fn in apps.items():
        wall_s, run = _best_of(fn, repeats=2)
        eng = run.cluster.engine
        section[name] = {
            "nranks": 16,
            "wall_s": round(wall_s, 4),
            "events": eng.events_executed,
            "events_per_s": round(eng.events_executed / wall_s),
            "virtual_elapsed_s": run.cluster.elapsed,
        }
        _assert_pinned(
            section[name], pinned.get(name), ("events", "virtual_elapsed_s")
        )
    _merge("apps", section)


# ---------------------------------------------------------------------------
# Scale: RA at 512 ranks must stay inside the harness budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_ra_scale_512_ranks(backend):
    t0 = time.perf_counter()
    run = run_caf(run_randomaccess, 512, SPEC, backend=backend, **RA_KW)
    wall_s = time.perf_counter() - t0
    eng = run.cluster.engine
    data = _load().get("ra_scale", {})
    data[backend] = {
        "nranks": 512,
        "wall_s": round(wall_s, 2),
        "budget_s": SCALE_BUDGET_S,
        "events": eng.events_executed,
        "events_per_s": round(eng.events_executed / wall_s),
        "virtual_elapsed_s": run.cluster.elapsed,
        "gups": run.results[0].gups,
    }
    _assert_pinned(
        data[backend],
        PINNED.get("ra_scale", {}).get(backend),
        ("events", "virtual_elapsed_s", "gups"),
    )
    _merge("ra_scale", data)
    assert wall_s < SCALE_BUDGET_S, (
        f"RA at 512 ranks took {wall_s:.0f}s on {backend} "
        f"(budget {SCALE_BUDGET_S:.0f}s)"
    )
