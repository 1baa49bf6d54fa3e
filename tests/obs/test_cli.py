"""The ``python -m repro.obs`` CLI: render, validate, diff, exit codes."""

import json

import numpy as np
import pytest

from repro.caf import run_caf
from repro.obs.cli import main


def ring_program(img):
    co = img.allocate_coarray(8, np.float64)
    img.sync_all()
    co.write((img.rank + 1) % img.nranks, np.ones(8))
    img.sync_all()


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    run = run_caf(ring_program, 2, backend="mpi", metrics=True)
    path = tmp_path_factory.mktemp("obs") / "run.report.json"
    run.report(label="cli-test").to_json(str(path))
    return path


def test_render(report_path, capsys):
    assert main(["render", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "run report: cli-test" in out
    assert "op-level metrics" in out


def test_render_prometheus(report_path, capsys):
    assert main(["render", str(report_path), "--prom"]) == 0
    out = capsys.readouterr().out
    assert "repro_run_makespan_seconds" in out


def test_validate_ok(report_path, capsys):
    assert main(["validate", str(report_path), str(report_path)]) == 0
    assert capsys.readouterr().out.count(": ok") == 2


def test_validate_bad_schema_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["render", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_diff_self_is_clean(report_path, capsys):
    assert main(["diff", str(report_path), str(report_path), "--fail"]) == 0
    assert "no differences" in capsys.readouterr().out


def test_diff_fail_trips_on_regression(report_path, tmp_path, capsys):
    data = json.loads(report_path.read_text())
    data["meta"]["makespan"] *= 2.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(data))
    assert main(["diff", str(report_path), str(worse), "--threshold", "5"]) == 0
    assert (
        main(["diff", str(report_path), str(worse), "--threshold", "5", "--fail"])
        == 1
    )
    out = capsys.readouterr().out
    assert "meta.makespan" in out


def test_diff_multiple_news_requires_all(report_path, capsys):
    with pytest.raises(SystemExit):
        main(["diff", str(report_path), str(report_path), str(report_path)])


def test_diff_all_compares_each_against_baseline(report_path, tmp_path, capsys):
    data = json.loads(report_path.read_text())
    data["meta"]["makespan"] *= 2.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(data))
    same = tmp_path / "same.json"
    same.write_text(report_path.read_text())
    rc = main(
        ["diff", str(report_path), str(same), str(worse), "--all",
         "--threshold", "5", "--fail"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert f"== {report_path.name} vs same.json ==" in out
    assert f"== {report_path.name} vs worse.json ==" in out
    assert "no differences" in out
    assert "1/2 report(s) regressed beyond 5.0%" in out
    # All-clean set exits 0 even with --fail.
    assert (
        main(["diff", str(report_path), str(same), str(same), "--all", "--fail"])
        == 0
    )


def test_module_entrypoint_runs(report_path):
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "validate", str(report_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert ": ok" in proc.stdout


# -- failed runs: capture emits a partial report the CLI can read ---------


@pytest.fixture(scope="module")
def failed_report_path(tmp_path_factory):
    from repro.obs import capture
    from repro.sim.faults import FaultPlan
    from repro.util.errors import ReproError

    def doomed(img):
        img.sync_all()
        if img.rank == 1:
            img.compute(seconds=1.0)
            return
        img.compute(seconds=6e-3)
        img.barrier()

    out = tmp_path_factory.mktemp("obs-failed")
    with capture.capture(out):
        with pytest.raises(ReproError):
            run_caf(doomed, 2, backend="mpi", metrics=True, deadline=5.0,
                    faults=FaultPlan(seed=2, crashes=[(1, 2e-3)]))
    (path,) = sorted(out.glob("run-*.report.json"))
    return path


def test_capture_marks_failed_outcome(failed_report_path):
    body = json.loads(failed_report_path.read_text())
    assert body["meta"]["outcome"] == "failed"
    assert body["failure"]["failed_images"] == [1]


def test_render_failed_report(failed_report_path, capsys):
    assert main(["render", str(failed_report_path)]) == 0
    out = capsys.readouterr().out
    assert "outcome: FAILED" in out
    assert "failed images: [1]" in out


def test_validate_failed_report(failed_report_path, capsys):
    assert main(["validate", str(failed_report_path)]) == 0
    assert ": ok" in capsys.readouterr().out


# -- diff --all exit-code edge cases --------------------------------------


def test_diff_all_single_new_is_allowed(report_path, capsys):
    assert main(["diff", str(report_path), str(report_path), "--all"]) == 0
    out = capsys.readouterr().out
    assert "0/1 report(s) regressed" in out


def test_diff_all_regression_exit_codes(report_path, tmp_path, capsys):
    data = json.loads(report_path.read_text())
    data["meta"]["makespan"] *= 2.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(data))
    argv = ["diff", str(report_path), str(report_path), str(worse), "--all"]
    # Regressions alone don't fail the invocation...
    assert main(argv) == 0
    # ...until --fail arms the tripwire; exactly one of two regressed.
    assert main(argv + ["--fail"]) == 1
    assert "1/2 report(s) regressed" in capsys.readouterr().out


def test_diff_all_missing_new_exits_2(report_path, tmp_path, capsys):
    argv = [
        "diff", str(report_path), str(report_path),
        str(tmp_path / "absent.json"), "--all",
    ]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_diff_all_invalid_new_exits_2(report_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    argv = ["diff", str(report_path), str(report_path), str(bad), "--all"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


# -- top: telemetry streams through the same CLI --------------------------


@pytest.fixture(scope="module")
def telemetry_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-live") / "run.telemetry.jsonl"
    run_caf(ring_program, 2, backend="mpi", live=path, live_interval=0.0)
    return path


def test_top_renders_stream(telemetry_path, capsys):
    assert main(["top", str(telemetry_path)]) == 0
    out = capsys.readouterr().out
    assert "live telemetry" in out
    assert "FINAL (ok)" in out


def test_top_missing_file_exits_2(tmp_path, capsys):
    assert main(["top", str(tmp_path / "absent.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_top_malformed_stream_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"type": "meta", "schema": "nope"}) + "\n")
    assert main(["top", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_sniffs_telemetry_streams(telemetry_path, capsys):
    assert main(["validate", str(telemetry_path)]) == 0
    assert "telemetry" in capsys.readouterr().out


# -- validate takes what a capture writes ----------------------------------


@pytest.fixture
def captured_dir(tmp_path):
    from repro.obs.capture import capture

    out = tmp_path / "cap"
    with capture(out, trace=True, live=True, live_interval=0.0, record_ir=out / "ir"):
        run_caf(ring_program, 2, backend="mpi")
    (out / "notes.txt").write_text("not ours\n")
    (out / "other.json").write_text(json.dumps({"schema": "someone-else"}))
    return out


def test_validate_directory_checks_every_artifact(captured_dir, capsys):
    assert main(["validate", str(captured_dir), str(captured_dir / "ir")]) == 0
    verdicts = dict(
        line.rsplit("/", 1)[1].split(": ", 1)
        for line in capsys.readouterr().out.splitlines()
    )
    expected = {
        "run-0000.report.json": "ok (run report)",
        "run-0000.telemetry.jsonl": "ok (telemetry (",
        "run-0000.trace.json": "ok (chrome trace (",
        "run-0000-ring_program.json": "ok (IR trace (176 ops, makespan reproduced))",
        "notes.txt": "skipped (not an artifact this repo writes)",
        "other.json": "skipped (not an artifact this repo writes)",
    }
    assert sorted(verdicts) == sorted(expected)  # the .npz half prints no line
    for name, verdict in expected.items():
        assert verdicts[name].startswith(verdict), name


def test_validate_directory_names_the_malformed_file_and_field(captured_dir, capsys):
    report = captured_dir / "run-0000.report.json"
    body = json.loads(report.read_text())
    del body["meta"]["makespan"]
    report.write_text(json.dumps(body))
    assert main(["validate", str(captured_dir)]) == 2
    err = capsys.readouterr().err
    assert str(report) in err and "meta.makespan" in err


def test_validate_directory_rejects_truncated_manifest(captured_dir, capsys):
    manifest = captured_dir / "ir" / "run-0000-ring_program.json"
    manifest.write_text(manifest.read_text()[:40])
    assert main(["validate", str(captured_dir / "ir")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "not valid JSON" in err


def test_validate_directory_rejects_trace_version_mismatch(captured_dir, capsys):
    from repro.ir.trace import TRACE_VERSION

    manifest = captured_dir / "ir" / "run-0000-ring_program.json"
    body = json.loads(manifest.read_text())
    body["ir_version"] = TRACE_VERSION + 1
    manifest.write_text(json.dumps(body))
    assert main(["validate", str(captured_dir / "ir")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err
    assert f"this build reads version {TRACE_VERSION}" in err


# -- every kind of artifact, as the code that writes it in production does --


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One file of every kind ``validate`` recognises, keyed by kind."""
    from repro.ir.cli import main as ir_main
    from repro.obs.capture import capture
    from repro.resilience import chaos

    out = tmp_path_factory.mktemp("kinds")
    with capture(out, trace=True, live=True, live_interval=0.0, record_ir=out / "ir"):
        for nranks in (2, 3, 4):
            run_caf(ring_program, nranks, backend="mpi")
    reports = [str(out / f"run-000{i}.report.json") for i in range(3)]
    assert main(["scaling", *reports, "--out", str(out / "scaling.json")]) == 0
    trace = out / "ir" / "run-0000-ring_program"
    assert ir_main(["replay", "--trace", str(trace), "--out", str(out / "replay.json")]) == 0
    assert ir_main(
        ["sweep", "--trace", str(trace), "--vary", "mpi_p2p_overhead=6e-7,1.2e-6",
         "--out", str(out / "sw")]
    ) == 0
    assert chaos.main(
        ["--runs", "1", "--seed", "77", "--apps", "ra", "--backends", "mpi", "--modes",
         "faults", "--quiet", "--no-minimize", "--determinism-every", "0",
         "--out", str(out / "camp")]
    ) == 0
    return {
        "run report": out / "run-0000.report.json",
        "scaling report": out / "scaling.json",
        "telemetry": out / "run-0000.telemetry.jsonl",
        "IR trace": trace.with_suffix(".json"),
        "replay result": out / "replay.json",
        "sweep summary": out / "sw" / "sweep-summary.json",
        "chaos ledger": out / "camp" / "campaign.json",
        "chrome trace": out / "run-0000.trace.json",
    }


#: kind -> (a required field, what the error then says about it).
REQUIRED = {
    "run report": (("meta", "makespan"), "meta.makespan"),
    "scaling report": (("summary",), "summary"),
    "telemetry": (("nranks",), "nranks"),
    "IR trace": (("makespan",), "makespan"),
    "replay result": (("makespan",), "makespan"),
    "sweep summary": (("points",), "points"),
    "chaos ledger": (("records",), "records"),
    # The key that marks a Chrome trace: without it the file is nobody's.
    "chrome trace": (("traceEvents",), "not an artifact this repo writes"),
}


def test_every_kind_of_the_table_has_a_case():
    from repro.obs.artifact import kinds

    assert [kind.name for kind in kinds()] == list(REQUIRED)


@pytest.mark.parametrize("kind", list(REQUIRED))
def test_validate_checks_every_kind(artifacts, kind, tmp_path, capsys):
    path = artifacts[kind]
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"{path}: ok ({kind}")

    # A copy with one required field deleted exits 2 naming file and field.
    broken = tmp_path / path.name
    text = path.read_text()
    head, sep, tail = text.partition("\n") if path.suffix == ".jsonl" else (text, "", "")
    top = node = json.loads(head)
    (*parents, field), says = REQUIRED[kind]
    for key in parents:
        node = node[key]
    del node[field]
    broken.write_text(json.dumps(top) + sep + tail)
    if kind == "IR trace":
        broken.with_suffix(".npz").write_bytes(path.with_suffix(".npz").read_bytes())
    assert main(["validate", str(broken)]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and says in err, err


def test_diff_compares_sweep_replay_results(artifacts, capsys):
    sweep = artifacts["sweep summary"].parent
    points = [str(sweep / f"point-0{i}.replay.json") for i in range(2)]
    assert main(["diff", "--all", *points]) == 0
    out = capsys.readouterr().out
    assert "meta.makespan" in out and "ops.mpi.send.time_s" in out
