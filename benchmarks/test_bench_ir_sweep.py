"""Replay-sweep harness: 16 MachineSpec points, live vs recorded replay.

The IR subsystem's acceptance numbers live here, in
``BENCH_ir_sweep.json`` at the repo root:

* ``sweep16`` — a 4x4 latency x bandwidth grid over RandomAccess.
  The *live* column re-executes the full simulator per point; the
  *replay* column records one instrumented run, compiles the trace once,
  and re-prices all 16 points. Asserted: the grid's identity point (the
  recorded spec) reproduces the live makespan bit-for-bit, and the replay
  sweep is at least ``MIN_SPEEDUP`` times faster than live re-execution —
  a floor under a ratio whose denominator keeps getting faster (a median
  9.4x over 16 runs on a 2-CPU container, pinned to one CPU, against
  7.1x before replay compiled its tables once per trace); a replay
  *regression* is judged against its parent by ``python3 -m bench run
  --workload toolchain``.
* Per-point live-vs-replay relative errors are recorded alongside — the
  honest approximation profile of frozen-structure replay under specs
  that differ from the recorded one.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_ir_sweep.py -q
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf
from repro.ir import record as ir_record
from repro.ir import run_sweep
from repro.ir.replay import CompiledTrace
from repro.ir.sweep import SweepPoint
from repro.platforms import PLATFORMS

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_ir_sweep.json"

NRANKS = 8
RA_KW = dict(table_bits_per_image=8, updates_per_image=512, batches=4)
BASE = PLATFORMS["laptop"]

#: Replay must stay this many times faster than live re-execution.
MIN_SPEEDUP = 4.0

#: 4x4 grid; (1, 1) is the identity point — the recorded spec itself.
LAT_FACTORS = (1, 2, 4, 8)
BW_FACTORS = (1, 2, 4, 8)


def _merge(section: str, payload) -> None:
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    data.setdefault("meta", {}).update(
        python=sys.version.split()[0],
        platform=sys.platform,
        cpus=os.cpu_count(),
    )
    data[section] = payload
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _grid():
    points = []
    for lf in LAT_FACTORS:
        for bf in BW_FACTORS:
            points.append(
                SweepPoint(
                    name=f"lat x{lf}, bw /{bf}",
                    overrides={
                        "latency": BASE.latency * lf,
                        "bandwidth": BASE.bandwidth / bf,
                    },
                )
            )
    return points


def _live(point: SweepPoint):
    # metrics=True: the replay column emits per-op totals and a comm
    # matrix per point, so the live column must produce them too.
    return run_caf(
        run_randomaccess, NRANKS, point.resolve(BASE), backend="mpi",
        metrics=True, **RA_KW
    )


def test_sweep16_replay_beats_live(tmp_path):
    points = _grid()

    # Live: 16 full simulator executions.
    t0 = time.perf_counter()
    live_runs = [_live(p) for p in points]
    live_wall = time.perf_counter() - t0

    # Replay: one recorded run, one compile, 16 re-pricings.
    t0 = time.perf_counter()
    with ir_record.recording(tmp_path / "ra.npz"):
        recorded_run = run_caf(
            run_randomaccess, NRANKS, BASE, backend="mpi", **RA_KW
        )
    record_wall = time.perf_counter() - t0
    trace = ir_record.last_trace()
    assert trace is not None

    t0 = time.perf_counter()
    compiled = CompiledTrace(trace)
    outcome = run_sweep(compiled, points)
    replay_wall = time.perf_counter() - t0

    # Calibration: the identity point is the live run, bit-for-bit.
    identity = outcome.results[0][1]
    assert points[0].resolve(BASE).latency == BASE.latency
    assert identity.makespan == recorded_run.elapsed
    assert identity.makespan == live_runs[0].elapsed

    rows = []
    for point, (_, res), live in zip(points, outcome.results, live_runs):
        err = abs(res.makespan - live.elapsed) / live.elapsed
        rows.append(
            {
                "point": point.name,
                "live_makespan": live.elapsed,
                "replay_makespan": res.makespan,
                "rel_error": round(err, 6),
            }
        )

    speedup = live_wall / replay_wall
    _merge(
        "sweep16",
        {
            "description": "4x4 latency x bandwidth grid, RA x8 on mpi",
            "nranks": NRANKS,
            "trace_ops": trace.nops,
            "live_wall_s": round(live_wall, 4),
            "record_wall_s": round(record_wall, 4),
            "replay_sweep_wall_s": round(replay_wall, 4),
            "speedup_vs_live": round(speedup, 1),
            "identity_point_exact": True,
            "points": rows,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"16-point replay sweep only {speedup:.1f}x faster than live "
        f"re-execution ({replay_wall:.3f}s vs {live_wall:.3f}s; floor "
        f"{MIN_SPEEDUP:g}x). Live runs getting faster lowers this ratio too: "
        "judge a replay regression against its parent with `python3 -m bench "
        "run --workload toolchain` (toolchain/wall_s)"
    )
