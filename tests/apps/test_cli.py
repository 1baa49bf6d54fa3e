"""The `python -m repro.apps` driver."""

import pytest

from repro.apps.__main__ import main


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["randomaccess", "--procs", "4", "--updates", "128"], "GUPS"),
        (["fft", "--procs", "4", "--m", "4096"], "GFlop/s"),
        (["hpl", "--procs", "2", "--n", "64"], "TFlop/s"),
        (["cgpop", "--procs", "2", "--ny", "8", "--nx", "4"], "converged=True"),
        (["cgpop", "--procs", "4", "--px", "2", "--ny", "8", "--nx", "8"], "converged=True"),
        (["micro", "--procs", "2", "--op", "notify"], "ops/s"),
    ],
)
def test_cli_runs_each_app(capsys, argv, needle):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert needle in out
    assert "time decomposition" in out


def test_cli_verification_verdicts_printed(capsys):
    main(["randomaccess", "--procs", "2", "--updates", "64"])
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_backend_and_platform_options(capsys):
    main(["fft", "--procs", "4", "--m", "4096", "--backend", "gasnet", "--platform", "edison"])
    out = capsys.readouterr().out
    assert "edison" in out and "CAF-GASNET" in out


def test_cli_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["teleport"])
