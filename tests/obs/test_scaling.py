"""Scaling-law analytics: order fitting, the RA sweep, mismatch detection.

The acceptance contract: ``mpi.flush_all`` per-call cost fits linear-in-P
and GASNet ``event_notify`` fits constant from 4/8/16-rank RandomAccess
RunReports, each agreeing with the static cost model's prediction — and a
doctored sweep trips the mismatch path.
"""

import copy
import json
import math

import pytest

from repro.apps.randomaccess import run_randomaccess
from repro.caf import run_caf
from repro.obs.cli import main as obs_main
from repro.obs.report import RunReport, SchemaError
from repro.obs.scaling import (
    DEFAULT_EXPECTATIONS,
    ScalingReport,
    fit_order,
    fit_scaling,
    parse_expectations,
    static_order,
    validate_scaling_report,
)
from repro.platforms import PLATFORMS

RA_KW = dict(table_bits_per_image=8, updates_per_image=64, batches=4)
SWEEP_RANKS = (4, 8, 16)


@pytest.fixture(scope="module")
def ra_reports():
    """4/8/16-rank RA RunReports per backend — the sweep the CI job fits."""
    out = {}
    for backend in ("mpi", "gasnet"):
        out[backend] = [
            run_caf(run_randomaccess, p, backend=backend, metrics=True, **RA_KW)
            .report(label=f"ra-{backend}-x{p}", app="randomaccess")
            for p in SWEEP_RANKS
        ]
    return out


# -- fit_order: the lattice classifier ------------------------------------


@pytest.mark.parametrize(
    "name,fn",
    [
        ("const", lambda p: 3.0),
        ("log", lambda p: 1.0 + 0.5 * math.log2(p)),
        ("linear", lambda p: 0.2 + 0.4 * p),
        ("poly", lambda p: 1.0 + 0.01 * p * p),
    ],
)
def test_fit_order_recovers_exact_curves(name, fn):
    ranks = [4, 8, 16, 32, 64]
    fit = fit_order(ranks, [fn(p) for p in ranks])
    assert fit.name == name
    assert fit.nrmse < 1e-9
    assert fit.candidates[name] < 1e-9


def test_fit_order_shrinking_cost_is_not_growth():
    ranks = [4, 8, 16, 32]
    fit = fit_order(ranks, [1.0 / p for p in ranks])
    # A negative slope fits "linear" perfectly; the classifier must refuse
    # to call a shrinking cost a growth order.
    assert fit.name == "const"


def test_fit_order_needs_three_distinct_ranks():
    with pytest.raises(ValueError, match=">= 3 distinct"):
        fit_order([4, 8], [1.0, 2.0])
    with pytest.raises(ValueError, match=">= 3 distinct"):
        fit_order([4, 4, 4], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="value"):
        fit_order([4, 8, 16], [1.0, 2.0])


def test_fit_order_all_zero_is_const():
    fit = fit_order([4, 8, 16], [0.0, 0.0, 0.0])
    assert fit.name == "const" and fit.nrmse == 0.0


# -- static predictions ----------------------------------------------------


def test_static_orders_match_the_paper():
    from repro.lint.stream.sym import ORDER_CONST, ORDER_LINEAR

    spec = PLATFORMS["laptop"]
    assert static_order("mpi.flush_all", "mpi", spec) == ORDER_LINEAR
    assert static_order("mpi.flush_all.idle", "mpi", spec) == ORDER_CONST
    assert static_order("caf.event_notify", "gasnet", spec) == ORDER_CONST
    assert static_order("gasnet.am", "gasnet", spec) == ORDER_CONST
    # MPI notify's O(P) lives in the flush_all lowering — no separate model.
    assert static_order("caf.event_notify", "mpi", spec) is None
    # Blocking-dominated kinds have no meaningful per-call model.
    assert static_order("caf.event_wait", "mpi", spec) is None


# -- the RA sweep: the paper's Fig. 4 asymmetry ----------------------------


def test_mpi_sweep_fits_flush_all_linear(ra_reports):
    sc = fit_scaling(ra_reports["mpi"])
    fa = sc.kind("mpi.flush_all")
    assert fa["order"] == "linear"
    assert fa["static_order"] == "linear"
    assert fa["static_agrees"] is True
    idle = sc.kind("mpi.flush_all.idle")
    assert idle["order"] == "const"
    assert idle["static_agrees"] is True
    assert sc.kind("caf.event_notify")["order"] == "linear"
    assert sc.expectation_mismatches == []
    assert sc.crosscheck_mismatches == []


def test_gasnet_sweep_fits_notify_const(ra_reports):
    sc = fit_scaling(ra_reports["gasnet"])
    assert sc.kind("caf.event_notify")["order"] == "const"
    assert sc.kind("caf.event_notify")["static_agrees"] is True
    assert sc.kind("gasnet.am")["order"] == "const"
    assert sc.expectation_mismatches == []
    assert sc.crosscheck_mismatches == []


def test_scaling_report_roundtrip_and_render(ra_reports, tmp_path):
    sc = fit_scaling(ra_reports["mpi"])
    path = tmp_path / "scaling.json"
    sc.to_json(str(path))
    loaded = ScalingReport.load(str(path))
    assert loaded.data == sc.data
    out = sc.render()
    assert "mpi.flush_all" in out
    assert "O(P)" in out
    assert "0 expectation mismatch(es)" in out


# -- the seeded negative: mismatch path must trip --------------------------


def _doctored_gasnet(ra_reports):
    """GASNet sweep with event_notify times grown linearly in P — the
    regression a tree-less notify rewrite would introduce."""
    reports = [copy.deepcopy(r.data) for r in ra_reports["gasnet"]]
    for data in reports:
        p = data["meta"]["nranks"]
        entry = data["ops"]["kinds"]["caf.event_notify"]
        entry["time"] = entry["calls"] * (0.2e-6 + 0.4e-6 * p)
    return [RunReport.from_dict(d) for d in reports]


def test_doctored_gasnet_sweep_trips_both_detectors(ra_reports):
    sc = fit_scaling(_doctored_gasnet(ra_reports))
    assert sc.kind("caf.event_notify")["order"] == "linear"
    assert sc.kind("caf.event_notify")["static_agrees"] is False
    assert "caf.event_notify" in sc.crosscheck_mismatches
    assert any(
        e["kind"] == "caf.event_notify" for e in sc.expectation_mismatches
    )
    assert sc.data["summary"]["expectation_mismatches"] >= 1
    assert sc.data["summary"]["crosscheck_mismatches"] >= 1


def test_cli_scaling_fail_exits_1_on_mismatch(ra_reports, tmp_path, capsys):
    paths = []
    for rep in _doctored_gasnet(ra_reports):
        p = tmp_path / f"ra-{rep.meta['nranks']}.json"
        rep.to_json(str(p))
        paths.append(str(p))
    assert obs_main(["scaling", *paths]) == 0  # report-only mode
    assert obs_main(["scaling", *paths, "--fail"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


def test_cli_scaling_happy_path_writes_artifact(ra_reports, tmp_path, capsys):
    paths = []
    for rep in ra_reports["mpi"]:
        p = tmp_path / f"ra-{rep.meta['nranks']}.json"
        rep.to_json(str(p))
        paths.append(str(p))
    out_path = tmp_path / "scaling.json"
    assert obs_main(["scaling", *paths, "--out", str(out_path), "--fail"]) == 0
    validate_scaling_report(json.loads(out_path.read_text()))
    assert obs_main(["validate", str(out_path)]) == 0
    assert "scaling report" in capsys.readouterr().out


def test_cli_scaling_expect_overrides(ra_reports, tmp_path):
    paths = []
    for rep in ra_reports["mpi"]:
        p = tmp_path / f"ra-{rep.meta['nranks']}.json"
        rep.to_json(str(p))
        paths.append(str(p))
    # Declare the wrong expectation: the detector must trip on it.
    assert (
        obs_main(
            ["scaling", *paths, "--expect", "mpi.flush_all=const", "--fail"]
        )
        == 1
    )
    # Without defaults and with only a satisfied expectation: clean. The
    # crosscheck still runs, so disable it to isolate the expectation path.
    assert (
        obs_main(
            [
                "scaling", *paths,
                "--no-default-expectations",
                "--no-crosscheck",
                "--expect", "mpi.flush_all=linear",
                "--fail",
            ]
        )
        == 0
    )


# -- input validation ------------------------------------------------------


def test_fit_scaling_rejects_bad_sweeps(ra_reports):
    mpi = ra_reports["mpi"]
    with pytest.raises(SchemaError, match=">= 3 reports"):
        fit_scaling(mpi[:2])
    with pytest.raises(SchemaError, match="duplicate rank"):
        fit_scaling([mpi[0], mpi[0], mpi[1]])
    with pytest.raises(SchemaError, match="one backend"):
        fit_scaling([mpi[0], mpi[1], ra_reports["gasnet"][2]])


def test_fit_scaling_warns_on_absent_expectation_kind(ra_reports):
    sc = fit_scaling(
        ra_reports["mpi"], expectations={"caf.nonexistent_op": "const"}
    )
    assert any("caf.nonexistent_op" in w for w in sc.data["warnings"])


def test_parse_expectations():
    assert parse_expectations(["a.b=linear", "c=const"]) == {
        "a.b": "linear",
        "c": "const",
    }
    with pytest.raises(SchemaError, match="bad expectation"):
        parse_expectations(["a.b=quadratic"])
    with pytest.raises(SchemaError, match="bad expectation"):
        parse_expectations(["nosep"])


def test_default_expectations_cover_both_backends():
    assert DEFAULT_EXPECTATIONS["mpi"]["mpi.flush_all"] == "linear"
    assert DEFAULT_EXPECTATIONS["gasnet"]["caf.event_notify"] == "const"


def test_validate_rejects_malformed_reports(ra_reports):
    good = fit_scaling(ra_reports["mpi"]).data
    bad = copy.deepcopy(good)
    bad["kinds"]["mpi.flush_all"]["order"] = "quadratic"
    with pytest.raises(SchemaError):
        validate_scaling_report(bad)
    for where in ("order", "static_order"):  # unhashable: a SchemaError, not a TypeError
        bad = copy.deepcopy(good)
        bad["kinds"]["mpi.flush_all"][where] = []
        with pytest.raises(SchemaError, match=where):
            validate_scaling_report(bad)
    bad = copy.deepcopy(good)
    bad["meta"]["nranks"] = [4, 8]
    with pytest.raises(SchemaError):
        validate_scaling_report(bad)
    with pytest.raises(SchemaError):
        validate_scaling_report({"schema": "nope"})
