"""The ``python -m repro.ir`` CLI: record, replay, sweep, validate."""

import json

import pytest

from repro.ir.cli import main

from tests.ir.conftest import record_run


@pytest.fixture(scope="module")
def trace_stem(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ir-cli")
    _, trace = record_run(tmp, "fft", "mpi", "laptop")
    stem = tmp / "fft-mpi-laptop"
    trace.save(stem)
    return stem


def test_record_subcommand_writes_artifact(tmp_path, capsys):
    # A .npz/.json suffix names a single artifact stem ...
    out = tmp_path / "ra-trace.npz"
    rc = main(
        ["record", "--out", str(out), "randomaccess", "--procs", "2",
         "--updates", "128"]
    )
    assert rc == 0
    assert out.exists()
    assert out.with_suffix(".json").exists()
    assert "ir:" in capsys.readouterr().out

    # ... anything else is a directory receiving run-NNNN artifacts.
    outdir = tmp_path / "traces"
    rc = main(
        ["record", "--out", str(outdir), "randomaccess", "--procs", "2",
         "--updates", "128"]
    )
    assert rc == 0
    assert len(list(outdir.glob("run-0000-*.npz"))) == 1


def test_replay_at_recorded_spec_reports_exact_match(trace_stem, capsys):
    assert main(["replay", "--trace", str(trace_stem)]) == 0
    out = capsys.readouterr().out
    recorded = json.loads(trace_stem.with_suffix(".json").read_text())["makespan"]
    assert f"recorded makespan: {recorded!r}" in out
    assert f"replayed makespan: {recorded!r}" in out


def test_replay_with_platform_and_overrides_writes_report(
    trace_stem, tmp_path, capsys
):
    report = tmp_path / "replay.json"
    rc = main(
        ["replay", "--trace", str(trace_stem), "--platform", "edison",
         "--set", "latency=5e-6", "--out", str(report)]
    )
    assert rc == 0
    body = json.loads(report.read_text())
    assert body["schema"] == "repro.ir.replay/1"
    assert body["spec_name"] == "edison+latency"
    assert "replayed on edison+latency" in capsys.readouterr().out


def test_sweep_subcommand_emits_grid_artifacts(trace_stem, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(
        ["sweep", "--trace", str(trace_stem),
         "--vary", "latency=1e-6,2e-6", "--vary", "bandwidth=5e9,1e10",
         "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "sweep-summary.json").read_text())
    assert len(summary["points"]) == 4
    assert len(list(out.glob("point-*.replay.json"))) == 4
    assert "swept 4 point(s)" in capsys.readouterr().out


def test_validate_ok_and_version_reject(trace_stem, tmp_path, capsys):
    assert main(["validate", str(trace_stem)]) == 0
    assert ": OK (" in capsys.readouterr().out

    # A tampered version must fail validation with exit 1.
    bad = tmp_path / "bad"
    bad.with_suffix(".npz").write_bytes(
        trace_stem.with_suffix(".npz").read_bytes()
    )
    manifest = json.loads(trace_stem.with_suffix(".json").read_text())
    manifest["ir_version"] = 999
    bad.with_suffix(".json").write_text(json.dumps(manifest))
    assert main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_module_entrypoint_runs(trace_stem):
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.ir", "validate", str(trace_stem)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert ": OK (" in proc.stdout


def test_replay_and_sweep_of_a_recording_directory_exit_2(tmp_path, capsys):
    # A suffix-less --out records a directory of run-NNNN stems, not a trace.
    traces = tmp_path / "ra"
    assert main(["record", "--out", str(traces), "randomaccess", "--procs", "2",
                 "--updates", "128"]) == 0
    capsys.readouterr()
    for argv in (["replay", "--trace", str(traces)],
                 ["sweep", "--trace", str(traces), "--vary", "latency=1e-6,2e-6"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"missing manifest {traces}.json" in err
