"""The figure builder: one sweep over declared series x P."""

import pytest

from repro.apps.randomaccess import run_randomaccess
from repro.experiments._perf import RUNTIMES, Series, sweep
from repro.platforms import FUSION

PROCS = [2, 4]
TINY_RA = {"table_bits_per_image": 4, "updates_per_image": 32, "batches": 2}


@pytest.mark.parametrize("ideal", [True, False])
def test_sweep_runs_series_major_and_tabulates_each_cell(ideal):
    cells = []

    def counted(label):
        def app(img, **kwargs):
            if img.rank == 0:
                cells.append((label, img.nranks, kwargs["updates_per_image"]))
            return run_randomaccess(img, **kwargs)
        return app

    # A callable kwarg is a function of P.
    ra = {**TINY_RA, "updates_per_image": lambda p: 16 * p}
    series = [
        Series(label, FUSION, backend, counted(label), "gups", ra)
        for label, backend in RUNTIMES
    ]
    result = sweep("t", "tiny RA", PROCS, series, ideal=ideal, notes="n")

    assert cells == [
        (label, p, 16 * p) for label, _ in RUNTIMES for p in PROCS
    ]
    labels = [label for label, _ in RUNTIMES] + (["IDEAL-SCALE"] if ideal else [])
    assert list(result.headers) == ["procs", *labels]
    assert list(result.findings) == [*labels, "procs"]
    assert result.findings["procs"] == PROCS
    assert [row[0] for row in result.rows] == PROCS
    for i, row in enumerate(result.rows):
        assert row[1:] == [result.findings[label][i] for label in labels]
    assert all(v > 0 for label in labels for v in result.findings[label])
    if ideal:
        base = result.findings["CAF-MPI"][0]
        assert result.findings["IDEAL-SCALE"] == [base, base * 2]
    assert (result.exp_id, result.title, result.notes) == ("t", "tiny RA", "n")
