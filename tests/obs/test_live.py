"""Live telemetry tap: digest identity, stream schema, failure stamping.

The contract under test is the tentpole's: the heartbeat only *reads*
engine state, so event-order digests, makespans, and profiler totals are
bit-identical with telemetry on or off, while the stream itself is a
valid, renderable progress trail that failure diagnostics can stamp.
"""

import json

import pytest

from repro.apps.randomaccess import run_randomaccess
from repro.caf import run_caf
from repro.obs.live import (
    LiveTelemetry,
    follow_top,
    read_telemetry,
    render_top,
    validate_meta,
    validate_snapshot,
)
from repro.obs.report import SchemaError
from repro.util.errors import DeadlockError, SimTimeoutError

RA_KW = dict(table_bits_per_image=8, updates_per_image=64, batches=4)


def _ra(tmp_path, *, live, name="t.jsonl"):
    kwargs = dict(RA_KW)
    if live:
        kwargs.update(live=tmp_path / name, live_interval=0.0)
    return run_caf(run_randomaccess, 4, **kwargs)


def _fingerprint(run):
    return (
        run.cluster.engine.order_digest(),
        run.elapsed,
        run.profiler.breakdown(),
    )


def test_digest_makespan_profiler_identical_on_off(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    off = _fingerprint(_ra(tmp_path, live=False))
    on = _fingerprint(_ra(tmp_path, live=True))
    assert off[0] is not None
    assert off == on


def test_stream_is_schema_valid(tmp_path):
    run = _ra(tmp_path, live=True)
    meta, snaps = read_telemetry(tmp_path / "t.jsonl")
    validate_meta(meta)
    assert meta["nranks"] == 4
    assert meta["backend"] == "mpi"
    assert meta["app"] == "run_randomaccess"
    # Where the host ran the fibers: the engine's own account, in the header.
    engine = run.cluster.engine
    assert meta["fiber_cpu"] == engine.fiber_cpu
    assert meta["fiber_policy"] == engine.fiber_policy in ("batch", "normal")
    old = {k: v for k, v in meta.items() if not k.startswith("fiber_")}
    validate_meta(old)  # streams written before the keys existed still load
    for bad in ({"fiber_cpu": "1"}, {"fiber_cpu": -1}, {"fiber_policy": "fifo"}):
        with pytest.raises(SchemaError, match="fiber_"):
            validate_meta({**meta, **bad})
    for snap in snaps:
        validate_snapshot(snap, nranks=4)
    assert [s["seq"] for s in snaps] == list(range(len(snaps)))
    assert len(snaps) == run.cluster.telemetry.snapshots_written
    last = snaps[-1]
    assert last["final"] is True
    assert last["outcome"] == "ok"
    assert last["ranks"] == {"total": 4, "running": 0, "blocked": 0, "done": 4}
    assert last["rss_bytes"] > 0
    assert last["sim_s"] == run.elapsed
    # Resumes that cost a context switch: the engine's exact count, final in
    # the last snapshot; streams written before the key existed still load.
    assert 0 < last["handoffs"] == engine.handoffs <= last["events"]
    validate_snapshot({k: v for k, v in last.items() if k != "handoffs"}, nranks=4)
    with pytest.raises(SchemaError, match="handoffs"):
        validate_snapshot({**last, "handoffs": 1.5}, nranks=4)


def test_interval_and_check_every_control_density(tmp_path):
    dense = LiveTelemetry(tmp_path / "dense.jsonl", interval_s=0.0, check_every=64)
    run_caf(run_randomaccess, 4, live=dense, **RA_KW)
    sparse = LiveTelemetry(tmp_path / "sparse.jsonl", interval_s=3600.0)
    run_caf(run_randomaccess, 4, live=sparse, **RA_KW)
    assert dense.snapshots_written > sparse.snapshots_written
    # A huge interval still lands the first-check and final snapshots.
    _meta, snaps = read_telemetry(tmp_path / "sparse.jsonl")
    assert len(snaps) == 2 and snaps[-1]["final"] is True


def test_telemetry_is_single_run(tmp_path):
    tel = LiveTelemetry(tmp_path / "t.jsonl", interval_s=0.0)
    run_caf(run_randomaccess, 4, live=tel, **RA_KW)
    with pytest.raises(SchemaError, match="already attached"):
        run_caf(run_randomaccess, 4, live=tel, **RA_KW)


# -- failure stamping (satellite: hung runs die with a progress trail) ----


def _lonely_sync(img):
    if img.rank == 0:
        img.sync_all()


def _crawl(img):
    for _ in range(100):
        img.ctx.proc.sleep(1.0)


def test_deadlock_carries_final_snapshot(tmp_path):
    with pytest.raises(DeadlockError) as excinfo:
        run_caf(_lonely_sync, 4, live=tmp_path / "d.jsonl", live_interval=0.0)
    exc = excinfo.value
    assert exc.telemetry is not None
    assert exc.telemetry["final"] is True
    assert exc.telemetry["outcome"] == "failed"
    # The engine unwound the fibers before the error surfaced; the snapshot
    # must reflect the watchdog's bookkeeping, not the post-mortem states.
    assert exc.telemetry["ranks"]["blocked"] == 1
    (row,) = exc.telemetry["blocked"]
    assert row["rank"] == 0
    assert "telemetry:" in str(exc)
    _meta, snaps = read_telemetry(tmp_path / "d.jsonl")
    assert snaps[-1]["outcome"] == "failed"


def test_timeout_carries_final_snapshot(tmp_path):
    with pytest.raises(SimTimeoutError) as excinfo:
        run_caf(
            _crawl, 4, live=tmp_path / "t.jsonl", live_interval=0.0, deadline=5.0
        )
    exc = excinfo.value
    assert exc.telemetry is not None
    assert exc.telemetry["outcome"] == "failed"
    assert exc.telemetry["ranks"]["blocked"] == 4
    assert "telemetry:" in str(exc)


def test_errors_without_tap_have_none_telemetry():
    with pytest.raises(DeadlockError) as excinfo:
        run_caf(_lonely_sync, 4)
    assert excinfo.value.telemetry is None


# -- the report ties back to the stream -----------------------------------


def test_run_report_records_telemetry_meta(tmp_path):
    run = _ra(tmp_path, live=True)
    report = run.report(label="ra-x4", app="randomaccess")
    tel = report.meta["telemetry"]
    assert tel["path"].endswith("t.jsonl")
    assert tel["snapshots"] == run.cluster.telemetry.snapshots_written
    assert "live telemetry" in report.render()


# -- stream reading and rendering -----------------------------------------


def test_read_telemetry_rejects_empty_and_gapped(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        read_telemetry(empty)
    _ra(tmp_path, live=True, name="g.jsonl")
    lines = (tmp_path / "g.jsonl").read_text().splitlines()
    assert len(lines) >= 3  # meta + at least two snapshots
    gapped = tmp_path / "gapped.jsonl"
    gapped.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    with pytest.raises(SchemaError, match="gap"):
        read_telemetry(gapped)


def test_read_telemetry_tolerates_truncated_tail(tmp_path):
    _ra(tmp_path, live=True)
    text = (tmp_path / "t.jsonl").read_text()
    full_meta, full_snaps = read_telemetry(tmp_path / "t.jsonl")
    cut = tmp_path / "cut.jsonl"
    cut.write_text(text[:-20])  # mid-record crash
    meta, snaps = read_telemetry(cut)
    assert meta == full_meta
    assert len(snaps) == len(full_snaps) - 1


def test_render_top_shows_progress(tmp_path):
    _ra(tmp_path, live=True)
    meta, snaps = read_telemetry(tmp_path / "t.jsonl")
    out = render_top(meta, snaps)
    assert "live telemetry" in out
    assert "FINAL (ok)" in out
    assert "recent snapshots" in out


def test_follow_top_returns_on_final_and_times_out(tmp_path, capsys):
    _ra(tmp_path, live=True)
    assert follow_top(tmp_path / "t.jsonl", interval=0.01) == 0
    # Strip the final marker: the stream never finishes, max_wait trips.
    lines = [
        json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()
    ]
    for rec in lines:
        rec["final"] = False
        rec.pop("outcome", None)
    hung = tmp_path / "hung.jsonl"
    hung.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert follow_top(hung, interval=0.01, max_wait=0.05) == 2
    capsys.readouterr()
