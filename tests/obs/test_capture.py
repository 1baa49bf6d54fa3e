"""Process-wide capture: run_caf emits per-run artifacts while active."""

import json

import numpy as np

from repro.caf import run_caf
from repro.obs import capture
from repro.obs.report import RunReport


def program(img):
    co = img.allocate_coarray(8, np.float64)
    img.sync_all()
    co.write((img.rank + 1) % img.nranks, np.ones(8))
    img.sync_all()


def test_inactive_by_default():
    assert not capture.active()
    assert not capture.trace_forced()


def test_capture_context_emits_one_report_per_run(tmp_path):
    out = tmp_path / "obs"
    with capture.capture(out):
        assert capture.active()
        run_caf(program, 2, backend="mpi")
        run_caf(program, 2, backend="gasnet")
    assert not capture.active()
    reports = sorted(out.glob("run-*.report.json"))
    assert [p.name for p in reports] == [
        "run-0000.report.json",
        "run-0001.report.json",
    ]
    r0 = RunReport.load(str(reports[0]))
    assert r0.meta["backend"] == "mpi"
    assert r0.meta["metrics_enabled"] is True  # capture force-enables metrics
    assert r0.op("caf.coarray_write")["calls"] == 2
    assert RunReport.load(str(reports[1])).meta["backend"] == "gasnet"


def test_capture_with_trace_also_writes_chrome_json(tmp_path):
    out = tmp_path / "obs"
    capture.start(out, trace=True)
    try:
        assert capture.trace_forced()
        run_caf(program, 2, backend="mpi")
    finally:
        written = capture.stop()
    names = sorted(p.name for p in written)
    assert names == ["run-0000.report.json", "run-0000.trace.json"]
    trace = json.loads((out / "run-0000.trace.json").read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    report = RunReport.load(str(out / "run-0000.report.json"))
    assert report.meta["traced"] is True
    assert report.data["critical_path"] is not None


def test_stop_returns_written_paths_and_resets(tmp_path):
    capture.start(tmp_path / "a")
    run_caf(program, 2)
    first = capture.stop()
    assert len(first) == 1
    # A fresh capture restarts the sequence at run-0000.
    capture.start(tmp_path / "b")
    run_caf(program, 2)
    second = capture.stop()
    assert [p.name for p in second] == ["run-0000.report.json"]
    assert capture.stop() == []  # idempotent when inactive


def test_emit_without_active_capture_is_a_noop(tmp_path):
    run = run_caf(program, 2)
    capture.emit(run.cluster, backend="mpi")  # must not raise or write
    assert list(tmp_path.iterdir()) == []


def test_capture_live_emits_telemetry_stream_per_run(tmp_path):
    out = tmp_path / "obs"
    capture.start(out, live=True, live_interval=0.0)
    try:
        assert capture.live_forced()
        run_caf(program, 4)
        run_caf(program, 4)
    finally:
        written = capture.stop()
    assert not capture.live_forced()
    names = sorted(p.name for p in written)
    assert names == [
        "run-0000.report.json",
        "run-0000.telemetry.jsonl",
        "run-0001.report.json",
        "run-0001.telemetry.jsonl",
    ]
    from repro.obs.live import read_telemetry

    for seq in (0, 1):
        meta, snaps = read_telemetry(out / f"run-{seq:04d}.telemetry.jsonl")
        assert meta["nranks"] == 4
        assert snaps[-1]["final"] is True and snaps[-1]["outcome"] == "ok"
        report = RunReport.load(str(out / f"run-{seq:04d}.report.json"))
        assert report.meta["telemetry"]["snapshots"] == len(snaps)


def test_report_and_ir_trace_of_one_run_share_a_stem(tmp_path):
    """One run index per run_caf: the IR recording skips a fault-injected
    run, which must leave a gap in its stems, not shift every later one
    against the reports."""
    from repro.ir import record as ir_record
    from repro.ir.trace import Trace
    from repro.sim.faults import FaultPlan

    reports, traces = tmp_path / "obs", tmp_path / "ir"
    with capture.capture(reports), ir_record.recording(traces):
        run_caf(program, 2, faults=FaultPlan(seed=1, drop_rate=0.2), reliable=True)
        clean = run_caf(program, 4)
    assert sorted(p.name for p in reports.iterdir()) == [
        "run-0000.report.json",
        "run-0001.report.json",
    ]
    assert sorted(p.name for p in traces.iterdir()) == [
        "run-0001-program.json",
        "run-0001-program.npz",
    ]
    trace = Trace.load(traces / "run-0001-program")
    report = RunReport.load(str(reports / "run-0001.report.json"))
    assert trace.manifest["makespan"] == report.makespan == clean.elapsed
    assert trace.nranks == report.meta["nranks"] == 4
