"""CLI behavior of ``python -m repro.sanitizer``: target validation and
exit codes for clean vs. diagnostic-producing runs."""

from __future__ import annotations

import pytest

from repro.sanitizer import __main__ as cli
from tests.sanitizer.buggy_kernels import run_kernel


def test_unknown_target_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-app"])
    assert exc.value.code == 2
    assert "unknown target" in capsys.readouterr().err


def test_clean_app_run_exits_zero(capsys):
    rc = cli.main(["randomaccess", "--procs", "4", "--updates", "64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sanitizing randomaccess" in out
    assert "clean" in out


def test_diagnostic_run_exits_nonzero(monkeypatch, capsys):
    # Swap the apps CLI for a corpus kernel with a planted race so the
    # CLI's report-collection path sees a real diagnostic.
    monkeypatch.setattr(cli, "apps_main", lambda argv: run_kernel("mpi_put_unsynced_local_read"))
    rc = cli.main(["randomaccess"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "violation" in out


def test_no_sanitized_runs_message(monkeypatch, capsys):
    monkeypatch.setattr(cli, "apps_main", lambda argv: None)
    rc = cli.main(["randomaccess"])
    assert rc == 0
    assert "no sanitized runs" in capsys.readouterr().out


def test_app_arguments_and_defaults_are_the_apps_cli(monkeypatch, capsys):
    # One set of flags: whatever follows the app name reaches
    # ``python -m repro.apps`` untouched, and nothing is defaulted here.
    seen = []
    monkeypatch.setattr(cli, "apps_main", seen.append)
    cli.main(["fft", "--procs", "4", "--m", "256", "--backend", "gasnet"])
    cli.main(["hpl"])
    assert seen == [
        ["fft", "--procs", "4", "--m", "256", "--backend", "gasnet"],
        ["hpl"],
    ]


def test_experiment_target_rejects_app_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig03", "--procs", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --procs 4" in capsys.readouterr().err
