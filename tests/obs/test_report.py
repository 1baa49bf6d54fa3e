"""RunReport assembly, schema validation, exporters, and diffing."""

import json

import numpy as np
import pytest

from repro.caf import run_caf
from repro.obs.report import (
    RunReport,
    SchemaError,
    build_report,
    diff_reports,
    validate_report,
)


def ring_program(img, *, nbytes=64):
    co = img.allocate_coarray(nbytes // 8, np.float64)
    img.sync_all()
    co.write((img.rank + 1) % img.nranks, np.full(nbytes // 8, float(img.rank)))
    img.sync_all()


@pytest.fixture(scope="module")
def run():
    return run_caf(ring_program, 4, backend="mpi", metrics=True, trace=True)


@pytest.fixture(scope="module")
def report(run):
    return run.report(label="ring-x4", app="ring")


def test_report_meta_and_ops(run, report):
    assert report.meta["nranks"] == 4
    assert report.meta["backend"] == "mpi"
    assert report.meta["label"] == "ring-x4"
    assert report.meta["metrics_enabled"] is True
    assert report.makespan == pytest.approx(run.elapsed)
    engine = run.cluster.engine
    assert report.meta["fiber_cpu"] == engine.fiber_cpu
    assert report.meta["fiber_policy"] == engine.fiber_policy in ("batch", "normal")
    assert 0 < report.meta["handoffs"] == engine.handoffs < engine.events_executed
    # The ring writes are visible as op-level metrics on every rank.
    writes = report.op("caf.coarray_write")
    assert writes["calls"] == 4
    assert writes["bytes"] == 4 * 64
    assert report.op("nonexistent.kind") == {"calls": 0, "bytes": 0, "time": 0.0}


def test_report_sections_present(report):
    data = report.data
    assert data["schema"] == "repro.obs/run-report"
    assert data["profiler"]["breakdown"]
    assert data["fabric"]["messages"] > 0
    cm = data["comm_matrix"]
    assert cm["total_messages"] > 0
    assert len(cm["messages"]) == 4  # dense form kept at small P
    assert data["critical_path"]["steps"]


def test_to_json_round_trips_via_load(tmp_path, report):
    path = tmp_path / "r.json"
    text = report.to_json(str(path))
    assert json.loads(text) == report.data
    loaded = RunReport.load(str(path))
    assert loaded.data == report.data


def test_to_json_is_byte_deterministic(report):
    assert report.to_json() == report.to_json()


def test_validate_rejects_malformed_documents(report):
    for broken in [
        None,
        {},
        {"schema": "other", "version": 1},
        {**report.data, "version": 999},
        {**report.data, "meta": {}},
        {**report.data, "profiler": {"breakdown": {}}},
        {**report.data, "fabric": {"messages": "many", "bytes": 0}},
        {**report.data, "meta": {**report.data["meta"], "fiber_cpu": 0.5}},
        {**report.data, "meta": {**report.data["meta"], "fiber_policy": "rr"}},
        {**report.data, "meta": {**report.data["meta"], "handoffs": -1}},
    ]:
        with pytest.raises(SchemaError):
            validate_report(broken)
    validate_report(report.data)  # the real thing passes
    # ... and so does a report written before the fiber-placement keys and
    # the handoff count.
    old_meta = {
        k: v for k, v in report.data["meta"].items()
        if not k.startswith("fiber_") and k != "handoffs"
    }
    validate_report({**report.data, "meta": old_meta})


def test_prometheus_export_contains_scalars(report):
    text = report.to_prometheus()
    assert "# TYPE repro_run_makespan_seconds gauge" in text
    assert 'repro_op_calls_total{kind="caf.coarray_write"' in text
    assert "repro_fabric_messages_total" in text
    assert text.endswith("\n")


def test_render_mentions_key_tables(report):
    text = report.render()
    assert "run report: ring-x4" in text
    assert "op-level metrics" in text
    assert "heaviest traffic pairs" in text
    assert "critical path" in text


def test_report_without_metrics_or_trace_still_builds():
    run = run_caf(ring_program, 2, backend="mpi")
    report = build_report(run.cluster, backend="mpi")
    assert report.meta["metrics_enabled"] is False
    assert report.data["ops"]["kinds"] == {}
    assert report.data["comm_matrix"] is None
    assert report.data["critical_path"] is None
    validate_report(report.data)
    assert "time decomposition" in report.render()


def test_diff_identical_reports_has_no_changes(report):
    diff = diff_reports(report, report)
    assert diff.regressions(0.0) == []
    assert "no differences" in diff.render()


def test_diff_flags_regressions_beyond_threshold(run):
    a = run.report()
    b = RunReport.from_dict(json.loads(a.to_json()))
    b.data["meta"]["makespan"] = a.makespan * 1.5
    b.data["ops"]["kinds"]["caf.coarray_write"]["calls"] += 4
    diff = diff_reports(a, b, a_label="old", b_label="new")
    bad = {m for m, *_ in diff.regressions(0.10)}
    assert "meta.makespan" in bad
    assert "ops.caf.coarray_write.calls" in bad
    assert not {m for m, *_ in diff.regressions(2.0)}
    text = diff.render(threshold=0.10)
    assert "old" in text and "new" in text


def test_diff_handles_metrics_present_on_one_side_only(report):
    other = RunReport.from_dict(json.loads(report.to_json()))
    del other.data["ops"]["kinds"]["caf.coarray_write"]
    diff = diff_reports(report, other)
    rows = {m: rel for m, _, _, rel in diff.rows}
    # Present -> absent reads as a change to zero, not a crash.
    assert rows["ops.caf.coarray_write.calls"] == pytest.approx(-1.0)


# -- partial reports for failed runs --------------------------------------


def _doomed(img):
    img.sync_all()
    if img.rank == 1:
        img.compute(seconds=1.0)  # killed mid-flight
        return
    img.compute(seconds=6e-3)
    img.barrier()  # names the corpse


def _failed_cluster():
    from repro.sim.faults import FaultPlan
    from repro.util.errors import ReproError

    with pytest.raises(ReproError) as exc_info:
        run_caf(_doomed, 2, backend="mpi", metrics=True,
                faults=FaultPlan(seed=2, crashes=[(1, 2e-3)]), deadline=5.0)
    return exc_info.value


def test_failed_run_builds_partial_report():
    exc = _failed_cluster()
    report = build_report(exc.caf_cluster, backend="mpi", failure=exc)
    assert report.meta["outcome"] == "failed"
    fail = report.data["failure"]
    assert fail["error"] == type(exc).__name__
    assert fail["failed_images"] == [1]
    assert any(e["reason"] == "crash" for e in fail["failure_log"])
    validate_report(report.data)
    text = report.render()
    assert "outcome: FAILED" in text
    assert "failed images: [1]" in text


def test_validate_rejects_failure_with_ok_outcome():
    exc = _failed_cluster()
    report = build_report(exc.caf_cluster, backend="mpi", failure=exc)
    data = json.loads(report.to_json())
    data["meta"]["outcome"] = "ok"  # lie about the outcome
    with pytest.raises(SchemaError, match="outcome"):
        validate_report(data)
