"""Process-wide capture: every cluster built while one is active is armed
from it and leaves its artifacts; the session is the only arming state."""

import json

import numpy as np
import pytest

from repro.caf import run_caf
from repro.ir.record import last_trace, recording
from repro.ir.replay import validate_trace
from repro.ir.trace import Trace
from repro.obs import capture
from repro.obs.report import RunReport
from repro.sim import irhook
from repro.sim.cluster import Cluster
from repro.sim.faults import FaultPlan
from repro.sim.network import MachineSpec
from repro.util.errors import CafError, ResilienceError


def program(img):
    co = img.allocate_coarray(8, np.float64)
    img.sync_all()
    co.write((img.rank + 1) % img.nranks, np.ones(8))
    img.sync_all()


def doomed(img):
    img.sync_all()
    raise ValueError("program bug")


def test_inactive_by_default():
    assert not capture.active()
    run = run_caf(program, 2)
    assert run.cluster.arming is None  # nothing armed, nothing to finish
    assert run.metrics is None and run.sanitizer is None


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


def test_capture_live_emits_telemetry_stream_per_run(tmp_path):
    out = tmp_path / "obs"
    capture.start(out, live=True, live_interval=0.0)
    try:
        run_caf(program, 4)
        run_caf(program, 4)
    finally:
        written = capture.stop()
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
        assert (meta["backend"], meta["app"]) == ("mpi", "program")
        assert snaps[-1]["final"] is True and snaps[-1]["outcome"] == "ok"
        report = RunReport.load(str(out / f"run-{seq:04d}.report.json"))
        assert report.meta["telemetry"]["snapshots"] == len(snaps)


def test_report_and_ir_trace_of_one_run_share_a_stem(tmp_path):
    """One run index per run: the IR recording skips a fault-injected run,
    which must leave a gap in its stems, not shift every later one against
    the reports."""
    reports, traces = tmp_path / "obs", tmp_path / "ir"
    with capture.capture(reports), recording(traces):
        run_caf(program, 2, faults=FaultPlan(seed=1, drop_rate=0.2), reliable=True)
        clean = run_caf(program, 4)
    trace = Trace.load(traces / "run-0001-program")
    report = RunReport.load(str(reports / "run-0001.report.json"))
    assert trace.manifest["makespan"] == report.makespan == clean.elapsed
    assert trace.nranks == report.meta["nranks"] == 4


# -- the numbering contract, as one table ----------------------------------


def clean():
    run_caf(program, 2)


def faulty():
    run_caf(program, 2, faults=FaultPlan(seed=1, drop_rate=0.2), reliable=True)


def failing():
    with pytest.raises(ValueError, match="program bug"):
        run_caf(doomed, 2)


def runs(*steps):
    for step in steps:
        step()


def _capture_only(t):
    with capture.capture(t / "obs"):
        runs(clean, clean)


def _recording_only(t):
    # Nothing numbers the run the recorder skips, so its stems stay dense.
    with recording(t / "ir"):
        runs(clean, faulty, clean)


def _both(t):
    with capture.capture(t / "obs"), recording(t / "ir"):
        runs(clean, clean)


def _fault_between_clean(t):
    with capture.capture(t / "obs"), recording(t / "ir") as session:
        runs(clean, faulty, clean)
        assert session.skipped == {"fault-injected": 1}


def _failed_run(t):
    with capture.capture(t / "obs"), recording(t / "ir"):
        runs(clean, failing, clean)
    body = json.loads((t / "obs" / "run-0001.report.json").read_text())
    assert body["meta"]["outcome"] == "failed"
    assert body["failure"]["error"] == "ValueError"


def _capture_restarted_under_recording(t):
    with recording(t / "ir"):
        with capture.capture(t / "a"):
            clean()
        assert capture.active()
        with capture.capture(t / "b"):
            clean()


def _both_stopped(t):
    for part in ("a", "b"):
        with capture.capture(t / part), recording(t / f"ir-{part}"):
            clean()
        assert not capture.active()


def _single_stem(t):
    with capture.capture(t / "obs"), recording(t / "one.npz"):
        runs(clean, clean)


def _reports(d, *indices):
    return [f"{d}/run-{i:04d}.report.json" for i in indices]


def _traces(d, *indices):
    return [f"{d}/run-{i:04d}-program.{ext}" for i in indices for ext in ("json", "npz")]


NUMBERING = [
    (_capture_only, _reports("obs", 0, 1)),
    (_recording_only, _traces("ir", 0, 1)),
    (_both, _reports("obs", 0, 1) + _traces("ir", 0, 1)),
    (_fault_between_clean, _reports("obs", 0, 1, 2) + _traces("ir", 0, 2)),
    (_failed_run, _reports("obs", 0, 1, 2) + _traces("ir", 0, 2)),
    (_capture_restarted_under_recording,
     _reports("a", 0) + _reports("b", 1) + _traces("ir", 0, 1)),
    (_both_stopped,
     _reports("a", 0) + _reports("b", 0) + _traces("ir-a", 0) + _traces("ir-b", 0)),
    (_single_stem, _reports("obs", 0, 1) + ["one.json", "one.npz"]),
]


@pytest.mark.parametrize(
    "scenario, expected", NUMBERING, ids=[row[0].__name__.strip("_") for row in NUMBERING]
)
def test_run_numbering(tmp_path, scenario, expected):
    scenario(tmp_path)
    found = sorted(
        str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()
    )
    assert found == sorted(expected)
    assert not capture.active()


# -- a recorder cannot outlive its run --------------------------------------


def _raising_cluster():
    def boom(ctx):
        ctx.compute(seconds=1e-6)
        raise ValueError("program bug")

    with pytest.raises(ValueError, match="program bug"):
        Cluster(2, MachineSpec(name="generic")).run(boom)


def _dies_before_run():
    # Raised between the cluster's construction and its run.
    with pytest.raises(ResilienceError):
        run_caf(program, 2, checkpoint_every=0)


def _backend_constructor_raises():
    # Raised inside every rank's fiber, before the program starts.
    with pytest.raises(CafError):
        run_caf(program, 2, backend_options={"event_impl": "bogus"})


@pytest.mark.parametrize(
    "die", [_dies_before_run, _raising_cluster, _backend_constructor_raises]
)
def test_recorder_cannot_outlive_its_run(tmp_path, die):
    with recording(tmp_path / "ir"):
        die()
        assert irhook.RECORDER is None
        run_caf(program, 2)  # the next recorded run writes its trace
        assert last_trace() is not None and validate_trace(last_trace()) == []
    assert sorted(p.suffix for p in (tmp_path / "ir").iterdir()) == [".json", ".npz"]
    assert irhook.RECORDER is None
    run_caf(program, 2)  # and a plain run after the recording ends succeeds


# -- one rule for what a capture covers -------------------------------------


def test_raw_clusters_are_captured_and_recorded(tmp_path):
    """Every Cluster built under a capture is armed, not only run_caf's:
    abl_eager's raw-MPI ping-pongs leave reports and replayable traces."""
    from repro.experiments.registry import EXPERIMENTS

    with capture.capture(tmp_path / "obs"), recording(tmp_path / "ir") as session:
        EXPERIMENTS["abl_eager"].load()("quick")
    reports = sorted((tmp_path / "obs").glob("run-*.report.json"))
    assert len(reports) == 12  # 3 message sizes x 4 thresholds
    for path in reports:
        report = RunReport.load(str(path))
        assert report.meta["app"] == "program" and report.meta["backend"] is None
        for kind in ("mpi.send", "mpi.recv", "mpi.coll.barrier"):
            assert report.op(kind)["calls"] > 0
    assert len(session.recorded) == 24
    for i, path in enumerate(reports):
        trace = Trace.load(tmp_path / "ir" / f"run-{i:04d}-program")
        assert validate_trace(trace) == []  # live makespan reproduced bit-exactly
        assert trace.manifest["makespan"] == RunReport.load(str(path)).makespan


# -- what a session keeps ---------------------------------------------------


def test_skipped_runs_are_reported_by_reason(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out = tmp_path / "ir"
    assert main(["abl_faults", "--scale", "quick", "--record-ir", str(out)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == (
        f"recorded 4 trace artifact(s) in {out}, skipped 2 fault-injected "
        "run(s): pattern-changing faults invalidate a trace"
    )
    with recording(tmp_path / "ir2") as session:
        run_caf(program, 2, reliable=True)
    assert session.skipped == {"reliable-transport": 1}
    assert session.recorded_summary().endswith(
        "skipped 1 reliable-transport run(s): pattern-changing faults invalidate a trace"
    )


def test_explicit_sanitize_runs_leave_nothing_behind():
    import gc

    from repro.sanitizer import SanitizerReport

    def held():
        gc.collect()
        return sum(isinstance(o, SanitizerReport) for o in gc.get_objects())

    before = held()
    for _ in range(50):
        assert run_caf(program, 2, sanitize=True).sanitizer.report.clean
    assert held() == before
    with capture.capture(sanitize=True) as session:
        run_caf(program, 2)
        run_caf(program, 2, sanitize=True)
    assert len(session.sanitizer_reports) == 2


# -- observers never perturb the run ----------------------------------------


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_armed_runs_keep_digest_and_makespan(tmp_path, monkeypatch, backend):
    """Any subset of observers, armed through explicit kwargs or through the
    capture, leaves the event order and the makespan bit-identical."""
    from repro.apps.randomaccess import run_randomaccess

    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    kw = dict(table_bits_per_image=8, updates_per_image=64, batches=2, backend=backend)

    def ra(**armed):
        run = run_caf(run_randomaccess, 4, **armed, **kw)
        return run.cluster.engine.order_digest(), run.elapsed

    want = ra()
    explicit = [
        dict(metrics=True),
        dict(sanitize=True),
        dict(trace=True),
        dict(live=tmp_path / "explicit.jsonl", live_interval=0.0),
        dict(metrics=True, sanitize=True, trace=True,
             live=tmp_path / "all.jsonl", live_interval=0.0),
    ]
    for armed in explicit:
        assert ra(**armed) == want, armed
    obs = tmp_path / "obs"
    captures = [
        dict(out_dir=obs),
        dict(sanitize=True),
        dict(record_ir=tmp_path / "ir"),
        dict(out_dir=obs, live=True, live_interval=0.0),
        dict(out_dir=obs, trace=True),
        dict(out_dir=obs, trace=True, live=True, live_interval=0.0,
             record_ir=tmp_path / "ir", sanitize=True),
    ]
    for parts in captures:
        with capture.capture(**parts):
            assert ra() == want, parts
    assert last_trace().manifest["makespan"] == want[1]
