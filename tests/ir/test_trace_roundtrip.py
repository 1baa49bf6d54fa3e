"""Trace persistence: round-trip fidelity, versioning, fault policies."""

import json
import zipfile

import numpy as np
import pytest

from repro.ir import Trace, TraceVersionError, replay
from repro.ir import record as ir_record
from repro.ir.replay import ReplayError
from repro.ir.trace import TraceError
from repro.obs import capture
from repro.sim.faults import FaultPlan

from tests.ir.conftest import APPS, record_run
from repro.caf import run_caf
from repro.platforms import PLATFORMS


def test_save_load_replay_round_trip(tmp_path):
    run, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    npz_path, json_path = trace.save(tmp_path / "rt")
    assert npz_path.exists() and json_path.exists()

    loaded = Trace.load(tmp_path / "rt")
    assert loaded.manifest == trace.manifest
    assert loaded.nops == trace.nops
    assert loaded.nchains == trace.nchains

    a, b = replay(trace), replay(loaded)
    assert b.makespan == a.makespan == run.elapsed
    assert b.op_totals == a.op_totals


def test_a_compressed_trace_still_loads(tmp_path):
    """Traces were once written with ``np.savez_compressed``; such a file
    still loads, array for array."""
    _, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    npz_path, _ = trace.save(tmp_path / "old")
    np.savez_compressed(npz_path, **trace.arrays)
    with zipfile.ZipFile(npz_path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    loaded = Trace.load(tmp_path / "old")
    assert loaded.arrays.keys() == trace.arrays.keys()
    for name, column in trace.arrays.items():
        assert loaded.arrays[name].dtype == column.dtype
        assert np.array_equal(loaded.arrays[name], column), name
    assert replay(loaded).makespan == replay(trace).makespan


def test_a_trace_is_saved_uncompressed(tmp_path):
    _, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    npz_path, _ = trace.save(tmp_path / "rt")
    with zipfile.ZipFile(npz_path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}


def test_version_mismatch_is_rejected(tmp_path):
    _, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    trace.save(tmp_path / "old")
    manifest = json.loads((tmp_path / "old.json").read_text())
    manifest["ir_version"] = 1  # events and channels had their own op kinds
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    with pytest.raises(TraceVersionError, match=r"version 1, .*re-record"):
        Trace.load(tmp_path / "old")


def _resave_with(tmp_path, column, value, where):
    """A recorded trace saved again with ``column[where]`` set to ``value``."""
    _, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    trace.arrays[column] = trace.arrays[column].copy()
    trace.arrays[column][where] = value
    trace.save(tmp_path / "retired")
    return tmp_path / "retired"


@pytest.mark.parametrize(
    "kind, name",
    [(3, "FIRE"), (4, "WAITEV"), (7, "TAKE"), (8, "PUT"), (9, "CHGET")],
)
def test_retired_op_kind_is_refused_on_load(tmp_path, kind, name):
    """A retired op kind is refused by name when the trace loads: kind 7
    (TAKE) used to fail only once replay's walk reached it."""
    path = _resave_with(tmp_path, "kind", kind, -1)
    with pytest.raises(TraceError, match=rf"retired op kind {kind} \({name}\b.*re-record"):
        Trace.load(path)


def test_retired_chain_kind_is_refused_on_load(tmp_path):
    """Chain kind 2 (EXTERNAL) used to replay silently as a process chain
    starting at its ``chain_start``."""
    path = _resave_with(tmp_path, "chain_kind", 2, -1)
    with pytest.raises(TraceError, match=r"retired chain kind 2 \(EXTERNAL.*re-record"):
        Trace.load(path)


def test_fault_injected_runs_are_skipped_not_recorded(tmp_path):
    """Pattern-changing faults invalidate a trace: run_caf runs them live
    but writes no artifact (the recording stays armed for later runs)."""
    program, kwargs = APPS["fft"]
    out = tmp_path / "traces"
    capture.start(record_ir=out)
    try:
        run_caf(program, 4, PLATFORMS["laptop"], backend="mpi",
                faults=FaultPlan(seed=3, delay_rate=0.2, delay_jitter=1e-6),
                **kwargs)
        assert ir_record.last_trace() is None
        run_caf(program, 4, PLATFORMS["laptop"], backend="mpi", **kwargs)
        assert ir_record.last_trace() is not None
    finally:
        written = capture.stop()
    assert len(written) == 2  # one .npz + one .json, fault run skipped
    assert len(list(out.glob("run-*"))) == 2


def test_replay_rejects_pattern_changing_fault_plans(tmp_path):
    _, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    with pytest.raises(ReplayError, match="drop-free"):
        replay(trace, faults=FaultPlan(seed=1, drop_rate=0.01))
    with pytest.raises(ReplayError, match="crashes"):
        replay(trace, faults=FaultPlan(seed=1, crashes=[(0, 1e-3)]))


def test_replay_applies_drop_free_delay_plan(tmp_path):
    run, trace = record_run(tmp_path, "fft", "mpi", "laptop")
    delayed = replay(
        trace, faults=FaultPlan(seed=5, delay_rate=1.0, delay_jitter=1e-5)
    )
    assert delayed.makespan > run.elapsed
