"""Resilient RandomAccess and CGPOP: verified answers under mid-run crashes.

Crash times are expressed as fractions of the fault-free makespan. Shrink
recovery has unprotected windows (a crash landing inside the checkpoint
collective can deadlock the agreement — the classic blocking-coordinated-
checkpoint caveat), so the shrink tests probe a few fractions and require
at least one to recover end-to-end; the simulator is deterministic, so
whichever fraction works keeps working.
"""

import numpy as np
import pytest

from repro.apps.cgpop import assemble_solution, make_rhs, run_cgpop
from repro.apps.randomaccess import reference_tables, run_randomaccess
from repro.apps.verification import verify_cgpop
from repro.caf.program import run_caf
from repro.resilience import run_resilient
from repro.resilience.apps import run_resilient_cgpop, run_resilient_randomaccess
from repro.sim.faults import FaultPlan
from repro.util.errors import ResilienceError

NR = 4
RA_KW = dict(table_bits_per_image=6, updates_per_image=256, batches=4)
CG_KW = dict(ny=32, nx=16, tol=1e-8)
SHRINK_FRACS = (0.55, 0.7, 0.85, 0.95)
RESILIENT_APPS = [(run_resilient_randomaccess, RA_KW), (run_resilient_cgpop, CG_KW)]


def _ra_verified(cluster, nparts=NR):
    tables = cluster.shared("ra-res-tables", dict)
    ref = reference_tables(42, nparts, RA_KW["table_bits_per_image"],
                           RA_KW["updates_per_image"])
    return (sorted(tables) == list(range(nparts))
            and all(np.array_equal(tables[d], ref[d]) for d in range(nparts)))


def _cg_verified(cluster):
    sol = cluster.shared("cgpop-solution", dict)
    return verify_cgpop(sol, ny=CG_KW["ny"], nx=CG_KW["nx"], seed=11).passed


def _work_elapsed(program, backend, **kw):
    return run_caf(program, NR, backend=backend, wait_timeout=None, **kw).elapsed


# -- RandomAccess ---------------------------------------------------------


def test_ra_faultfree_matches_reference(backend):
    run = run_caf(run_resilient_randomaccess, NR, backend=backend, **RA_KW)
    assert _ra_verified(run.cluster)
    assert all(r["recoveries"] == 0 for r in run.results)


def test_ra_restart_recovers_from_crash(backend):
    t = _work_elapsed(run_resilient_randomaccess, backend, **RA_KW) * 0.6
    plan = FaultPlan(seed=3, crashes=[(1, t)])
    out = run_resilient(run_resilient_randomaccess, NR, mode="restart",
                        backend=backend, checkpoint_every=2, faults=plan,
                        deadline=10.0, **RA_KW)
    assert out.restarts >= 1
    assert out.attempts[0]["failed_images"] == [1]
    assert _ra_verified(out.cluster)


def _ra_shrink_recovers(backend, nranks, victim, doubled):
    """Shrink recovery from ``victim``'s crash at each of SHRINK_FRACS: a
    survivor adopts the victim's partition (``doubled`` maps it to the
    partitions it then hosts), and the run still verifies."""
    elapsed = run_caf(run_resilient_randomaccess, nranks, backend=backend,
                      wait_timeout=None, **RA_KW).elapsed
    recovered = []
    for frac in SHRINK_FRACS:
        plan = FaultPlan(seed=3, crashes=[(victim, elapsed * frac)])
        try:
            out = run_resilient(run_resilient_randomaccess, nranks, mode="shrink",
                                backend=backend, checkpoint_every=2,
                                faults=plan, deadline=10.0,
                                recovery="shrink", **RA_KW)
        except Exception:
            continue  # crash landed in an unprotected collective window
        if victim not in out.cluster.failed_ranks:
            continue  # run finished before the crash fired
        live = {r["rank"]: r for r in out.results if r is not None}
        assert sorted(live) == [w for w in range(nranks) if w != victim]
        assert all(r["team_size"] == nranks - 1 for r in live.values())
        assert all(r["recoveries"] >= 1 for r in live.values())
        assert all(r["parts"] == doubled.get(w, [w]) for w, r in live.items())
        assert _ra_verified(out.cluster, nparts=nranks)
        recovered.append(frac)
    assert recovered, "no crash fraction produced a successful shrink recovery"


def test_ra_shrink_recovers_from_crash(backend):
    _ra_shrink_recovers(backend, NR, 1, {0: [0, 1]})


def test_ra_shrink_on_eight_images_doubles_up_a_survivor(backend):
    _ra_shrink_recovers(backend, 8, 3, {0: [0, 3]})


def test_ra_is_the_paper_router(backend):
    """Fault-free, the resilient port routes as run_randomaccess does: the
    same table on every image."""
    res = run_caf(run_resilient_randomaccess, NR, backend=backend, **RA_KW)
    ref = run_caf(run_randomaccess, NR, backend=backend, **RA_KW)
    got = res.cluster.shared("ra-res-tables", dict)
    want = ref.cluster.shared("ra-tables", dict)
    assert sorted(got) == sorted(want) == list(range(NR))
    assert all(np.array_equal(got[p], want[p]) for p in range(NR))


# -- CGPOP ----------------------------------------------------------------


def test_cgpop_faultfree_converges(backend):
    run = run_caf(run_resilient_cgpop, NR, backend=backend, **CG_KW)
    assert all(r["converged"] for r in run.results)
    assert _cg_verified(run.cluster)


def test_cgpop_restart_recovers_from_crash(backend):
    t = _work_elapsed(run_resilient_cgpop, backend, **CG_KW) * 0.5
    plan = FaultPlan(seed=5, crashes=[(2, t)])
    out = run_resilient(run_resilient_cgpop, NR, mode="restart",
                        backend=backend, checkpoint_every=10, faults=plan,
                        deadline=30.0, **CG_KW)
    assert out.restarts >= 1
    assert out.attempts[0]["failed_images"] == [2]
    assert all(r["converged"] for r in out.results)
    assert _cg_verified(out.cluster)


def test_cgpop_shrink_recovers_from_crash(backend):
    elapsed = _work_elapsed(run_resilient_cgpop, backend, **CG_KW)
    recovered = []
    for frac in SHRINK_FRACS:
        plan = FaultPlan(seed=5, crashes=[(2, elapsed * frac)])
        try:
            out = run_resilient(run_resilient_cgpop, NR, mode="shrink",
                                backend=backend, checkpoint_every=10,
                                faults=plan, deadline=30.0,
                                recovery="shrink", **CG_KW)
        except Exception:
            continue
        if 2 not in out.cluster.failed_ranks:
            continue
        live = [r for r in out.results if r is not None]
        assert all(r["team_size"] == NR - 1 for r in live)
        assert all(r["recoveries"] >= 1 for r in live)
        assert all(r["converged"] for r in live)
        assert _cg_verified(out.cluster)
        recovered.append(frac)
    assert recovered, "no crash fraction produced a successful shrink recovery"


def test_cgpop_uneven_strips_faultfree(backend):
    """Three images, 32 rows: near-equal strips from the start."""
    run = run_caf(run_resilient_cgpop, 3, backend=backend, **CG_KW)
    assert all(r["converged"] for r in run.results)
    assert [r["rows"] for r in run.results] == [[0, 10], [10, 21], [21, 32]]
    assert _cg_verified(run.cluster)


def test_cgpop_zero_iterations_reports_the_initial_residual(backend):
    run = run_caf(run_resilient_cgpop, NR, backend=backend, max_iter=0, **CG_KW)
    bnorm = float(np.linalg.norm(make_rhs(11, CG_KW["ny"], CG_KW["nx"])))
    for r in run.results:
        assert (r["iterations"], r["converged"]) == (0, False)
        assert r["residual"] == pytest.approx(bnorm, rel=1e-12)


def test_cgpop_is_the_paper_solver(backend):
    """Fault-free and unarmed, the resilient port runs run_cgpop's solve:
    same iterations, same answer."""
    res = run_caf(run_resilient_cgpop, NR, backend=backend, **CG_KW)
    ref = run_caf(run_cgpop, NR, backend=backend, max_iter=400, seed=11, **CG_KW)
    assert {r["iterations"] for r in res.results} == {ref.results[0].iterations}
    got = assemble_solution(res.cluster.shared("cgpop-solution", dict), 32, 16)
    want = assemble_solution(ref.cluster.shared("cgpop-solution", dict), 32, 16)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("app,kw", RESILIENT_APPS, ids=["ra", "cgpop"])
def test_unknown_recovery_rejected(app, kw):
    with pytest.raises(ResilienceError, match="unknown recovery mode") as info:
        run_caf(app, NR, backend="mpi", recovery="shrnk", **kw)
    assert str(info.value).endswith("use 'restart' or 'shrink'"), str(info.value)


@pytest.mark.parametrize("app,kw", RESILIENT_APPS, ids=["ra", "cgpop"])
def test_shrink_budget_names_the_keyword(app, kw):
    t = _work_elapsed(app, "mpi", **kw) * 0.5
    plan = FaultPlan(seed=3, crashes=[(1, t)])
    with pytest.raises(ResilienceError, match="recovery budget exhausted") as info:
        run_resilient(app, NR, mode="shrink", backend="mpi", checkpoint_every=2,
                      faults=plan, deadline=10.0, recovery="shrink",
                      max_recoveries=0, **kw)
    assert str(info.value).endswith("raise max_recoveries"), str(info.value)


def test_ra_rejects_non_power_of_two():
    from repro.util.errors import CafError

    with pytest.raises(CafError, match="power of two") as info:
        run_caf(run_resilient_randomaccess, 3, backend="mpi", **RA_KW)
    assert str(info.value).endswith("run on a power-of-two number of images"), str(info.value)
