"""Event tracing: opt-in timeline of transfers and profiled regions."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.sim.trace import TraceEvent, Tracer


def test_disabled_tracer_records_nothing():
    t = Tracer()
    t.record("transfer", 0, 0.0, 1.0, nbytes=10)
    assert t.events == []


def test_enable_disable_cycle():
    t = Tracer()
    t.enable()
    t.record("x", 0, 0.0, 1.0)
    t.enabled = False
    t.record("x", 0, 1.0, 2.0)
    assert len(t.events) == 1


def test_event_duration_and_queries():
    t = Tracer()
    t.enable()
    t.record("transfer", 0, 1.0, 3.0, dst=1, nbytes=100)
    t.record("transfer", 1, 2.0, 4.0, dst=0, nbytes=50)
    t.record("region", 0, 0.0, 5.0, category="compute")
    assert len(t.of_kind("transfer")) == 2
    assert t.of_kind("region")[0].duration == 5.0


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_caf_run_with_tracing_captures_transfers(backend):
    def program(img):
        co = img.allocate_coarray(16, np.float64)
        img.sync_all()
        co.write((img.rank + 1) % img.nranks, np.ones(16))
        img.sync_all()

    run = run_caf(program, 4, backend=backend, trace=True)
    transfers = run.tracer.of_kind("transfer")
    assert transfers, "traced run must record fabric transfers"
    # At least the payloads crossed the fabric.
    assert sum(ev.detail["nbytes"] for ev in transfers) > 4 * 16 * 8
    # Every transfer's interval is well-formed and within the run.
    for ev in transfers:
        assert 0 <= ev.t0 <= ev.t1 <= run.elapsed


def test_caf_run_with_tracing_captures_regions():
    def program(img):
        co = img.allocate_coarray(4, np.float64)
        img.sync_all()
        co.write((img.rank + 1) % img.nranks, np.ones(4))
        img.sync_all()

    run = run_caf(program, 2, backend="mpi", trace=True)
    regions = run.tracer.of_kind("region")
    cats = {e.detail["category"] for e in regions}
    assert "coarray_write" in cats
    assert "barrier" in cats


def test_untraced_run_is_default():
    def program(img):
        img.sync_all()

    run = run_caf(program, 2)
    assert run.tracer.events == []


def test_trace_event_frozen():
    ev = TraceEvent("k", 0, 0.0, 1.0, {"a": 1})
    with pytest.raises(AttributeError):
        ev.kind = "other"


def test_chrome_trace_round_trips(tmp_path):
    import json

    t = Tracer()
    t.enable()
    t.record("transfer", 0, 1e-6, 3e-6, dst=1, nbytes=100)
    t.record("region", 1, 2e-6, 4e-6, category="compute", label="fft")
    path = tmp_path / "trace.json"
    n = t.to_chrome_trace(str(path))
    assert n == 4  # 2 process-name metadata + 2 complete events
    payload = json.loads(path.read_text())
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    assert [(m["pid"], m["args"]["name"]) for m in meta] == [
        (0, "rank 0"),
        (1, "rank 1"),
    ]
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 2
    first = events[0]
    assert first["cat"] == "transfer"
    assert first["pid"] == first["tid"] == 0
    assert first["ts"] == pytest.approx(1.0)  # us
    assert first["dur"] == pytest.approx(2.0)
    assert first["args"]["nbytes"] == 100
    # The label detail names the slice for the viewer.
    assert events[1]["name"] == "fft"


def test_chrome_trace_from_real_run(tmp_path):
    def program(img):
        co = img.allocate_coarray(16, dtype=np.float64)
        co.local[:] = img.rank
        img.sync_all()
        co.write((img.rank + 1) % img.nranks, np.ones(16))
        img.sync_all()
        return True

    run = run_caf(program, 2, backend="mpi", trace=True)
    path = tmp_path / "run.json"
    n = run.tracer.to_chrome_trace(str(path))
    ranks = {e.rank for e in run.tracer.events}
    assert n == len(run.tracer.events) + len(ranks) > 0
    import json

    payload = json.loads(path.read_text())
    assert {e["pid"] for e in payload["traceEvents"]} <= {0, 1}
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    # Chrome disallows negative durations; virtual time is monotone.
    assert all(e["dur"] >= 0 for e in slices)
