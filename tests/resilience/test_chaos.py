"""Chaos campaign harness: case derivation, invariants, ledger, CLI."""

import json

import pytest

from repro.resilience import chaos
from repro.resilience.chaos import (
    APPS,
    FAILED_EXPLAINED,
    HANG_VIOLATION,
    VERIFIED,
    VERIFY_VIOLATION,
    VIOLATIONS,
    AppSpec,
    CampaignConfig,
    CampaignRunner,
    case_from_seed,
    run_campaign,
)
from repro.util.errors import CafError, SimTimeoutError


def _cfg(**kw):
    base = dict(
        runs=4, seed=77, apps=("ra",), backends=("mpi",), modes=("faults",),
        determinism_every=0, minimize=False, verbose=False,
    )
    base.update(kw)
    return CampaignConfig(**base)


# -- deterministic case derivation ---------------------------------------


def test_cases_are_pure_functions_of_seed_and_index():
    cfg = _cfg(modes=("faults", "restart", "shrink"))
    a = [case_from_seed(cfg, i) for i in range(20)]
    b = [case_from_seed(cfg, i) for i in range(20)]
    assert a == b
    # The space is actually explored, not constant.
    assert len({c["mode"] for c in a}) > 1
    assert len({c["drop_rate"] for c in a}) == 20


def test_crash_only_scheduled_for_recovery_modes():
    cfg = _cfg(modes=("faults",))
    assert all(case_from_seed(cfg, i)["victim"] is None for i in range(10))
    cfg = _cfg(modes=("restart",))
    cases = [case_from_seed(cfg, i) for i in range(10)]
    assert all(c["victim"] is not None for c in cases)
    assert all(0.25 <= c["crash_frac"] <= 0.95 for c in cases)
    assert all(1 <= c["victim"] < cfg.nranks for c in cases)


def test_rates_stay_feasible():
    cfg = _cfg()
    for i in range(50):
        c = case_from_seed(cfg, i)
        total = (c["drop_rate"] + c["corrupt_rate"] + c["dup_rate"]
                 + c["delay_rate"])
        assert total < 1.0


# -- campaigns ------------------------------------------------------------


def test_ra_verifies_on_eight_images():
    """The RA reference has one partition per image, however many run."""
    summary = run_campaign(_cfg(runs=1, nranks=8))
    assert summary["counts"] == {VERIFIED: 1}


def test_fault_campaign_all_verified(tmp_path):
    cfg = _cfg(runs=4, out=tmp_path / "camp")
    summary = run_campaign(cfg)
    assert summary["counts"] == {VERIFIED: 4}
    assert summary["unexplained"] == 0
    assert all(r["fault_events"] >= 0 for r in summary["records"])

    # The ledger and per-case RunReports landed on disk.
    ledger = json.loads((tmp_path / "camp" / "campaign.json").read_text())
    assert ledger["counts"] == {VERIFIED: 4}
    for i in range(4):
        reports = sorted((tmp_path / "camp" / f"case-{i:04d}").glob(
            "run-*.report.json"))
        assert reports
        body = json.loads(reports[-1].read_text())
        assert body["meta"]["outcome"] == "ok"


def test_restart_campaign_recovers(tmp_path):
    cfg = _cfg(runs=2, seed=101, modes=("restart",), out=tmp_path / "camp")
    summary = run_campaign(cfg)
    assert summary["unexplained"] == 0
    for r in summary["records"]:
        assert r["outcome"] in (VERIFIED, FAILED_EXPLAINED)
        assert r["crash_time"] is not None


def test_verify_violation_is_flagged_and_fails_cli(monkeypatch, tmp_path):
    broken = AppSpec(
        name="ra", program=APPS["ra"].program, kwargs=APPS["ra"].kwargs,
        verify=lambda cluster, kwargs: False,  # everything is "wrong"
        checkpoint_every=2,
    )
    monkeypatch.setitem(APPS, "ra", broken)
    summary = run_campaign(_cfg(runs=1))
    assert summary["counts"] == {VERIFY_VIOLATION: 1}
    assert summary["unexplained"] == 1

    rc = chaos.main(["--runs", "1", "--seed", "77", "--apps", "ra",
                     "--backends", "mpi", "--modes", "faults", "--quiet",
                     "--no-minimize", "--determinism-every", "0"])
    assert rc == 1


def test_cli_exits_zero_on_clean_campaign(tmp_path, capsys):
    rc = chaos.main(["--runs", "2", "--seed", "77", "--apps", "ra",
                     "--backends", "mpi", "--modes", "faults", "--quiet",
                     "--no-minimize", "--determinism-every", "0",
                     "--out", str(tmp_path / "camp")])
    assert rc == 0
    assert "no unexplained violations" in capsys.readouterr().out
    assert (tmp_path / "camp" / "campaign.json").exists()


def test_determinism_invariant_runs_clean():
    # Every case index is sampled (determinism_every=1): verified cases get
    # replayed twice under the order digest and must match bit-for-bit.
    summary = run_campaign(_cfg(runs=2, determinism_every=1))
    assert summary["counts"] == {VERIFIED: 2}


# -- failure classification ----------------------------------------------


class _FakeCluster:
    def __init__(self, failed):
        self.failed_ranks = set(failed)


def _runner():
    return CampaignRunner(_cfg())


def test_hang_without_a_corpse_is_a_violation():
    exc = SimTimeoutError(5.0, {1: "event_wait"})
    exc.caf_cluster = _FakeCluster([])
    case = dict(victim=None)
    assert _runner()._classify_failure(case, exc) == HANG_VIOLATION
    assert HANG_VIOLATION in VIOLATIONS


def test_failure_with_injected_crash_is_explained():
    exc = SimTimeoutError(5.0, {1: "event_wait"})
    exc.caf_cluster = _FakeCluster([2])
    case = dict(victim=2)
    outcome = _runner()._classify_failure(case, exc)
    assert outcome == FAILED_EXPLAINED
    assert outcome not in VIOLATIONS


def test_unplanned_error_is_a_violation():
    exc = CafError("boom")
    case = dict(victim=None)
    assert _runner()._classify_failure(case, exc) in VIOLATIONS


# -- minimization hookup --------------------------------------------------


def test_campaign_minimizes_unexplained_failures(monkeypatch):
    # An app whose verification always fails minimizes down to a short
    # fault script: every subset reproduces, so ddmin drives to one event.
    broken = AppSpec(
        name="ra", program=APPS["ra"].program, kwargs=APPS["ra"].kwargs,
        verify=lambda cluster, kwargs: False,
        checkpoint_every=2,
    )
    monkeypatch.setitem(APPS, "ra", broken)
    summary = run_campaign(
        _cfg(runs=1, minimize=True, max_minimize_tests=16)
    )
    (record,) = summary["records"]
    assert record["outcome"] == VERIFY_VIOLATION
    assert record["minimized"] is not None
    assert len(record["minimized"]["minimal_events"]) <= 3
    assert record["minimized"]["tests"] <= 16
