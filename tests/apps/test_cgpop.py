"""CGPOP: the CG solver must converge to the true Laplacian solution."""

import numpy as np
import pytest

from repro.apps.cgpop import apply_laplacian, assemble_solution, make_rhs, run_cgpop
from repro.caf import run_caf
from repro.util.errors import CafError


def laplacian_matrix(ny, nx):
    import scipy.sparse as sp

    n = ny * nx
    main = 4.0 * np.ones(n)
    east = -np.ones(n - 1)
    east[np.arange(1, n) % nx == 0] = 0.0
    south = -np.ones(n - nx)
    return sp.diags(
        [main, east, east, south, south], [0, 1, -1, nx, -nx], format="csr"
    )


def gathered_solution(run):
    res = run.results[0]
    return assemble_solution(run.cluster._shared["cgpop-solution"], res.ny, res.nx)


@pytest.mark.parametrize("mode", ["push", "pull"])
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_converges_to_true_solution(backend, mode, nranks):
    ny, nx = 16, 8
    run = run_caf(run_cgpop, nranks, backend=backend, ny=ny, nx=nx, mode=mode, seed=4)
    assert all(r.converged for r in run.results)
    x = gathered_solution(run).reshape(-1)
    a = laplacian_matrix(ny, nx)
    b = make_rhs(4, ny, nx).reshape(-1)
    assert np.linalg.norm(a @ x - b) < 1e-5 * np.linalg.norm(b)


def test_push_and_pull_agree(backend):
    ny, nx = 16, 8
    push = run_caf(run_cgpop, 4, backend=backend, ny=ny, nx=nx, mode="push")
    pull = run_caf(run_cgpop, 4, backend=backend, ny=ny, nx=nx, mode="pull")
    xp = gathered_solution(push)
    xq = gathered_solution(pull)
    assert np.allclose(xp, xq, atol=1e-8)
    assert push.results[0].iterations == pull.results[0].iterations


def test_apply_laplacian_matches_matrix():
    ny, nx = 6, 5
    rng = np.random.default_rng(0)
    v = rng.standard_normal((ny, nx))
    out = apply_laplacian(v, np.zeros(nx), np.zeros(nx), np.zeros(ny), np.zeros(ny))
    a = laplacian_matrix(ny, nx)
    assert np.allclose(out.reshape(-1), a @ v.reshape(-1))


def test_bad_mode_rejected(backend):
    with pytest.raises(CafError, match="push.*pull"):
        run_caf(run_cgpop, 2, backend=backend, ny=8, nx=4, mode="sideways")


def test_indivisible_rows_rejected(backend):
    """Strips may be uneven but never empty: 3 rows cannot cover 4 images."""
    with pytest.raises(CafError, match="too small.*ny must be at least P/px"):
        run_caf(run_cgpop, 4, backend=backend, ny=3, nx=4)


def test_backends_indistinguishable_on_cgpop():
    """Figures 11-12: halo exchange costs are comparable across runtimes."""
    from repro.sim.network import MachineSpec

    spec = MachineSpec(name="t", ranks_per_node=1)
    kw = dict(ny=32, nx=16)
    times = {}
    for be in ("mpi", "gasnet"):
        run = run_caf(run_cgpop, 4, spec, backend=be, mode="push", **kw)
        times[be] = run.results[0].elapsed
    ratio = times["mpi"] / times["gasnet"]
    assert 0.5 < ratio < 2.0


def test_hybrid_uses_real_mpi_reduction():
    run = run_caf(run_cgpop, 2, backend="gasnet", ny=8, nx=4)
    # Hybrid CGPOP under CAF-GASNet must have initialized MPI too (Fig. 1).
    mb = run.memory.rank_mb(0, prefix="mpi/")
    assert mb > 0
