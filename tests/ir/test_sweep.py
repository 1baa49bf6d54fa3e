"""Sweep driver: grid expansion, artifact emission, identity point."""

import hashlib
import json

import pytest

from repro.apps.randomaccess import run_randomaccess
from repro.caf import run_caf
from repro.ir import SweepPoint, grid_points, replay, run_sweep
from repro.ir import record as ir_record
from repro.ir.replay import CompiledTrace
from repro.platforms import PLATFORMS

from tests.ir.conftest import record_run


def test_grid_points_cartesian_product():
    pts = grid_points({"latency": [1e-6, 2e-6], "bandwidth": [1e9, 2e9, 4e9]})
    assert len(pts) == 6
    assert all(set(p.overrides) == {"latency", "bandwidth"} for p in pts)
    assert len({p.name for p in pts}) == 6  # names are unique coordinates


def test_identity_point_reproduces_recorded_makespan(tmp_path):
    run, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    outcome = run_sweep(trace, [SweepPoint(name="as-recorded")])
    (_, res), = outcome.results
    assert res.makespan == run.elapsed


def test_run_sweep_writes_per_point_and_summary_artifacts(tmp_path):
    _, trace = record_run(tmp_path, "fft", "gasnet", "laptop")
    points = grid_points({"latency": [1e-6, 5e-6], "bandwidth": [5e9, 20e9]})
    out = tmp_path / "sweep"
    outcome = run_sweep(trace, points, out_dir=out)
    assert len(outcome.written) == 5  # 4 points + summary
    summary = json.loads((out / "sweep-summary.json").read_text())
    assert summary["schema"] == "repro.ir.sweep/1"
    assert len(summary["points"]) == 4
    assert all(row["makespan"] > 0 for row in summary["points"])
    # Per-point artifacts are full replay results.
    body = json.loads((out / "point-00.replay.json").read_text())
    assert body["schema"] == "repro.ir.replay/1"
    assert body["nranks"] == 4

    # Slower fabric -> longer makespan, ordered as physics demands.
    by_point = {row["name"]: row["makespan"] for row in summary["points"]}
    fast = by_point["bandwidth=20000000000.0,latency=1e-06"]
    slow = by_point["bandwidth=5000000000.0,latency=5e-06"]
    assert slow > fast


def test_compiled_trace_is_reused_across_points(tmp_path):
    """Compiling once and sweeping the CompiledTrace matches per-point
    replays of the raw trace exactly."""
    _, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    compiled = CompiledTrace(trace)
    points = grid_points({"latency": [1e-6, 4e-6]})
    outcome = run_sweep(compiled, points)
    for point, res in outcome.results:
        solo = replay(trace, point.resolve(compiled.recorded_spec))
        assert solo.makespan == res.makespan


#: benchmarks/test_bench_ir_sweep.py's run and grid: RA x8 on the laptop
#: spec, latency x (1, 2, 4, 8) by bandwidth / (1, 2, 4, 8), point 0 the
#: recorded spec itself.
RA_KW = dict(table_bits_per_image=8, updates_per_image=512, batches=4)

#: Per backend, per grid point: the replayed makespan's exact ``repr`` and
#: the first 16 hex digits of the sha256 of its ``ReplayResult.to_dict()``
#: as sorted-key JSON. Off the recorded spec nothing else pins replay bit
#: for bit, so a reordered same-time tie-break would move only these.
OFFSPEC_GOLDEN = {
    "mpi": [
        ("0.00028345570833333416", "f4b9c2e5e52718d2"),
        ("0.00028711770833333435", "a9a1d92cd166f2be"),
        ("0.0002944417083333345", "7bab6dba194e3c8f"),
        ("0.00030908970833333466", "687df2f7ad8dc2d8"),
        ("0.0003674557083333343", "225ef5d622401d29"),
        ("0.0003711177083333339", "db556cd1c4153568"),
        ("0.0003784417083333343", "bc402480e8f34089"),
        ("0.0003930897083333345", "c6d5c68dcbeb475e"),
        ("0.0005354557083333344", "f51ff3770b177dfd"),
        ("0.000539117708333334", "9447d4e21b07f923"),
        ("0.0005464417083333344", "a0f14f6ceda64bb5"),
        ("0.0005610897083333344", "7a0bd16c779677c7"),
        ("0.0008714557083333345", "208231f8b2db4409"),
        ("0.0008751177083333349", "046ad5901d893bcd"),
        ("0.0008824417083333337", "40f7b19b1b73f1f1"),
        ("0.0008970897083333349", "87aa6c250eb927f2"),
    ],
    "gasnet": [
        ("0.00015280637500000022", "fe2d01161b811a2f"),
        ("0.00015584437500000024", "a23eb1f7e5568d95"),
        ("0.00016192037500000026", "85bf180332b1b4d1"),
        ("0.00017424962500000042", "4264be9dc35d24e6"),
        ("0.0002258063750000005", "b74ba43015c99d51"),
        ("0.00022884437500000042", "1bd5afd96d4e8964"),
        ("0.0002349203750000004", "346facd19e7e42db"),
        ("0.00024724962500000043", "ccb07e2a3cb15615"),
        ("0.0003718063750000006", "50df879713d97fc5"),
        ("0.0003748443750000006", "e494764acf2b4908"),
        ("0.0003809203750000005", "2b58ffb6f47b81ba"),
        ("0.0003932496250000004", "e22277bbbf3d6502"),
        ("0.0006638063749999985", "af9111c2b466cf38"),
        ("0.0006668443749999977", "cccee4b939fb845a"),
        ("0.0006729203749999974", "19ed5cd80a740b32"),
        ("0.000685249624999997", "c523013bf8635001"),
    ],
}


@pytest.mark.parametrize("backend", sorted(OFFSPEC_GOLDEN))
def test_off_spec_sweep_is_pinned_bit_for_bit(tmp_path, backend):
    base = PLATFORMS["laptop"]
    with ir_record.recording(tmp_path / f"ra-{backend}.npz"):
        run = run_caf(run_randomaccess, 8, base, backend=backend, **RA_KW)
    points = [
        SweepPoint(
            name=f"lat x{lf}, bw /{bf}",
            overrides={"latency": base.latency * lf, "bandwidth": base.bandwidth / bf},
        )
        for lf in (1, 2, 4, 8)
        for bf in (1, 2, 4, 8)
    ]
    outcome = run_sweep(ir_record.last_trace(), points)
    got = [
        (
            repr(res.makespan),
            hashlib.sha256(
                json.dumps(res.to_dict(), sort_keys=True).encode()
            ).hexdigest()[:16],
        )
        for _, res in outcome.results
    ]
    assert got[0][0] == repr(run.elapsed)
    assert got == OFFSPEC_GOLDEN[backend]
