"""Resilient RandomAccess and CGPOP: verified answers under mid-run crashes.

Crash times are expressed as fractions of the fault-free makespan. The
shrink tests are ROADMAP item 19's three tables — RA and CGPOP at P = 4
over nine fractions from 0.3 to 0.95, RA at P = 8 over five — and every
row must recover, verify and finish within 10x the fault-free makespan: a
crash reaches every wait that depends on the dead image at once, so no
survivor stalls on a timer or on another survivor.
"""

import numpy as np
import pytest

from repro.apps.cgpop import assemble_solution, make_rhs, run_cgpop
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf
from repro.resilience import run_resilient
from repro.resilience.apps import run_resilient_cgpop, run_resilient_randomaccess
from repro.resilience.chaos import APPS, SHRINK_BUDGET, crash_sweep, fault_free_elapsed
from repro.sim.faults import FaultPlan
from repro.util.errors import ResilienceError

NR = 4
RA_KW = APPS["ra"].kwargs
CG_KW = APPS["cgpop"].kwargs
#: The crash fractions of item 19's tables: P = 4, and RA at P = 8.
TABLE_FRACS = tuple(np.linspace(0.3, 0.95, 9).round(2).tolist())
P8_FRACS = (0.3, 0.55, 0.7, 0.85, 0.95)


def _verified(app, cluster):
    return APPS[app].verify(cluster, APPS[app].kwargs)


# -- RandomAccess ---------------------------------------------------------


def test_ra_faultfree_matches_reference(backend):
    run = run_caf(run_resilient_randomaccess, NR, backend=backend, **RA_KW)
    assert _verified("ra", run.cluster)
    assert all(r["recoveries"] == 0 for r in run.results)


def test_ra_restart_recovers_from_crash(backend):
    t = fault_free_elapsed("ra", NR, backend) * 0.6
    plan = FaultPlan(seed=3, crashes=[(1, t)])
    out = run_resilient(run_resilient_randomaccess, NR, backend=backend,
                        checkpoint_every=2, faults=plan, deadline=10.0, **RA_KW)
    assert out.restarts >= 1
    assert out.attempts[0]["failed_images"] == [1]
    assert _verified("ra", out.cluster)


def _shrink_table(app, backend, nranks, victim, fracs):
    """One shrink-recovery table: ``victim`` crashes at each fraction, and
    every row recovers and verifies within 10x the fault-free makespan, its
    survivors on one shrunken team. Yields each row's live results."""
    bound = 10 * fault_free_elapsed(app, nranks, backend)
    for frac, outcome, detail, run in crash_sweep(app, nranks, victim, fracs, backend):
        assert outcome == "recovered", (frac, outcome, detail)
        assert run.elapsed <= bound, (frac, run.elapsed, bound)
        live = {r["rank"]: r for r in run.results if r is not None}
        assert sorted(live) == [w for w in range(nranks) if w != victim], frac
        assert all(r["team_size"] == nranks - 1 for r in live.values()), frac
        assert all(r["recoveries"] >= 1 for r in live.values()), frac
        yield frac, live


def _ra_shrink_recovers(backend, nranks, victim, fracs, doubled):
    """A survivor adopts the victim's partition (``doubled`` maps it to the
    partitions it then hosts) in every row of the table."""
    for frac, live in _shrink_table("ra", backend, nranks, victim, fracs):
        assert all(r["parts"] == doubled.get(w, [w]) for w, r in live.items()), frac


def test_ra_shrink_recovers_from_crash(backend):
    _ra_shrink_recovers(backend, NR, 1, TABLE_FRACS, {0: [0, 1]})


def test_ra_shrink_on_eight_images_doubles_up_a_survivor(backend):
    _ra_shrink_recovers(backend, 8, 3, P8_FRACS, {0: [0, 3]})


def test_gasnet_ra_shrink_survives_a_crash_early_in_the_run():
    """CAF-GASNet, image 1 crashing at 0.30 of the makespan: no survivor
    waits for another to build the shrunken team, and a team wait on the
    dead image fails instead of parking, so the run recovers."""
    [(_frac, outcome, detail, run)] = crash_sweep("ra", NR, 1, (0.3,), "gasnet")
    assert outcome == "recovered", detail
    live = {r["rank"]: r for r in run.results if r is not None}
    assert sorted(live) == [0, 2, 3]
    assert all(r["team_size"] == NR - 1 for r in live.values())
    assert live[0]["parts"] == [0, 1]


def test_ra_is_the_paper_router(backend):
    """Fault-free, the resilient port routes as run_randomaccess does: the
    same table on every image."""
    res = run_caf(run_resilient_randomaccess, NR, backend=backend, **RA_KW)
    ref = run_caf(run_randomaccess, NR, backend=backend, **RA_KW)
    got = res.cluster.shared("ra-tables", dict)
    want = ref.cluster.shared("ra-tables", dict)
    assert sorted(got) == sorted(want) == list(range(NR))
    assert all(np.array_equal(got[p], want[p]) for p in range(NR))


# -- CGPOP ----------------------------------------------------------------


def test_cgpop_faultfree_converges(backend):
    run = run_caf(run_resilient_cgpop, NR, backend=backend, **CG_KW)
    assert all(r["converged"] for r in run.results)
    assert _verified("cgpop", run.cluster)


def test_cgpop_restart_recovers_from_crash(backend):
    t = fault_free_elapsed("cgpop", NR, backend) * 0.5
    plan = FaultPlan(seed=5, crashes=[(2, t)])
    out = run_resilient(run_resilient_cgpop, NR, backend=backend,
                        checkpoint_every=10, faults=plan, deadline=30.0, **CG_KW)
    assert out.restarts >= 1
    assert out.attempts[0]["failed_images"] == [2]
    assert all(r["converged"] for r in out.results)
    assert _verified("cgpop", out.cluster)


def test_cgpop_shrink_recovers_from_crash(backend):
    for frac, live in _shrink_table("cgpop", backend, NR, 2, TABLE_FRACS):
        assert all(r["converged"] for r in live.values()), frac


def test_cgpop_uneven_strips_faultfree(backend):
    """Three images, 32 rows: near-equal strips from the start."""
    run = run_caf(run_resilient_cgpop, 3, backend=backend, **CG_KW)
    assert all(r["converged"] for r in run.results)
    assert [r["rows"] for r in run.results] == [[0, 10], [10, 21], [21, 32]]
    assert _verified("cgpop", run.cluster)


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


def _two_crashes(app):
    """Image 1 crashes at 0.3 and image 2 at 0.6 of the CAF-MPI makespan."""
    t = fault_free_elapsed(app, NR, "mpi")
    return FaultPlan(seed=3, crashes=[(1, t * 0.3), (2, t * 0.6)])


@pytest.mark.parametrize(
    "app, every, backend",
    [("ra", APPS["ra"].checkpoint_every, "mpi"),
     ("cgpop", APPS["cgpop"].checkpoint_every, "mpi"),
     ("cgpop", 2, "mpi"), ("ra", APPS["ra"].checkpoint_every, "gasnet")],
    ids=["ra", "cgpop", "cgpop-rebuild", "ra-gasnet"],
)
def test_shrink_budget_names_the_keyword(app, every, backend):
    """A budget of one shrink, two crashes: the second names the keyword,
    also when it lands in the rebuild after the first (cgpop-rebuild), and
    on CAF-GASNet, whose team waits fail on the second dead image."""
    spec = APPS[app]
    with pytest.raises(ResilienceError, match="recovery budget exhausted") as info:
        run_caf(spec.program, NR, backend=backend, faults=_two_crashes(app), deadline=10.0,
                checkpoint_every=every, max_recoveries=1, **spec.kwargs)
    assert str(info.value).endswith("raise max_recoveries"), str(info.value)


def test_a_crash_during_the_rebuild_is_one_more_recovery():
    """The second crash lands while the survivors rebuild the solver after
    the first: building is the loop's first step, so it is one more
    recovery, not an error that ends the run."""
    run = run_caf(run_resilient_cgpop, NR, backend="mpi", faults=_two_crashes("cgpop"),
                  deadline=10.0, checkpoint_every=2, max_recoveries=2, **CG_KW)
    assert _verified("cgpop", run.cluster)
    live = {r["rank"]: r for r in run.results if r is not None}
    assert sorted(live) == [0, 3]
    assert all((r["recoveries"], r["team_size"]) == (2, 2) for r in live.values())


def test_an_image_declared_failed_leaves_the_loop(frac=0.5):
    """The run declares image 2 failed while it is alive (as a transport
    give-up does), at the instant image 3 crashes. Image 2 leaves the loop
    without publishing, and the survivors' run verifies."""
    t = fault_free_elapsed("cgpop", NR, "mpi") * frac

    def program(img, **kw):
        if img.rank == 0:
            cluster = img.cluster
            img.ctx.engine.call_at(t, lambda: cluster.declare_failed(2))
        return run_resilient_cgpop(img, **kw)

    run = run_caf(program, NR, backend="mpi", faults=FaultPlan(seed=3, crashes=[(3, t)]),
                  reliable=True, deadline=10.0,
                  checkpoint_every=APPS["cgpop"].checkpoint_every,
                  max_recoveries=SHRINK_BUDGET, **CG_KW)
    assert [f["rank"] for f in run.cluster.failure_log] == [3, 2]
    assert run.results[2] == {"rank": 2, "left": True, "recoveries": 0}
    assert 2 not in run.cluster.shared("cgpop-solution", dict)
    assert [r["team_size"] for r in (run.results[0], run.results[1])] == [2, 2]
    assert _verified("cgpop", run.cluster)


def test_an_image_declared_failed_between_probe_and_receive_leaves_the_loop():
    """At 0.3 the declaration lands while image 2 is inside the AM drain's
    receive, after its probe saw a message: the declaration drops that
    message, and the receive it then posts is refused instead of parking
    until the deadlock report."""
    test_an_image_declared_failed_leaves_the_loop(frac=0.3)


def test_ra_rejects_non_power_of_two():
    from repro.util.errors import CafError

    with pytest.raises(CafError, match="power of two") as info:
        run_caf(run_resilient_randomaccess, 3, backend="mpi", **RA_KW)
    assert str(info.value).endswith("run on a power-of-two number of images"), str(info.value)
