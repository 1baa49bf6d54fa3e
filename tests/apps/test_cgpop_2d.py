"""CGPOP on a 2-D px x py image grid: 4-neighbor halos, same CG as strips."""

import numpy as np
import pytest

from repro.apps.cgpop import apply_laplacian, assemble_solution, make_rhs, run_cgpop
from repro.apps.verification import verify_cgpop
from repro.caf import run_caf
from repro.util.errors import CafError

from tests.apps.test_cgpop import gathered_solution, laplacian_matrix

GRID_HINT = "ny must be at least P/px, nx at least px"


def test_apply_laplacian_2d_matches_matrix():
    """An interior block with its four halos gives the global operator's
    rows for that block."""
    ny, nx = 6, 5
    rng = np.random.default_rng(0)
    v = rng.standard_normal((ny, nx))
    full = (laplacian_matrix(ny, nx) @ v.reshape(-1)).reshape(ny, nx)
    r0, r1, c0, c1 = 2, 4, 1, 3
    out = apply_laplacian(
        v[r0:r1, c0:c1],
        v[r0 - 1, c0:c1], v[r1, c0:c1], v[r0:r1, c0 - 1], v[r0:r1, c1],
    )
    assert np.allclose(out, full[r0:r1, c0:c1])


@pytest.mark.parametrize(
    "nranks,px,mode",
    [
        pytest.param(
            n, px, mode, id=f"{n}-{px}-{n // px}" + ("-pull" if mode == "pull" else "")
        )
        for n, px in ((4, 2), (6, 3), (8, 4))
        for mode in ("push", "pull")
    ],
)
def test_2d_converges_to_true_solution(backend, nranks, px, mode):
    py = nranks // px
    ny, nx = 8 * py, 4 * px
    run = run_caf(
        run_cgpop, nranks, backend=backend, ny=ny, nx=nx, px=px, mode=mode, seed=2
    )
    assert all(r.converged for r in run.results)
    x = assemble_solution(run.cluster._shared["cgpop-solution"], ny, nx)
    a = laplacian_matrix(ny, nx)
    b = make_rhs(2, ny, nx)
    assert (
        np.linalg.norm(a @ x.reshape(-1) - b.reshape(-1))
        < 1e-5 * np.linalg.norm(b)
    )


def test_2d_matches_1d_solution(backend):
    ny, nx = 16, 8
    run1 = run_caf(run_cgpop, 4, backend=backend, ny=ny, nx=nx, seed=7)
    run2 = run_caf(run_cgpop, 4, backend=backend, ny=ny, nx=nx, px=2, seed=7)
    assert np.allclose(gathered_solution(run1), gathered_solution(run2), atol=1e-7)


def test_auto_factorization():
    run = run_caf(run_cgpop, 6, backend="mpi", ny=12, nx=12, px=2, seed=1)
    assert all(r.converged for r in run.results)


def test_bad_grid_divisibility_rejected(backend):
    """Blocks may be uneven but never empty: 3 columns cannot cover px=4."""
    with pytest.raises(CafError, match="grid 8x3 too small for 1x4 images"):
        run_caf(run_cgpop, 4, backend=backend, ny=8, nx=3, px=4)


def test_bad_factorization_rejected(backend):
    with pytest.raises(CafError, match="px must divide P") as info:
        run_caf(run_cgpop, 4, backend=backend, ny=8, nx=8, px=3)
    assert str(info.value).endswith("choose px dividing P"), str(info.value)


@pytest.mark.parametrize(
    "nranks,ny,nx,px", [(3, 16, 4, 1), (4, 9, 10, 2), (4, 8, 6, 4), (6, 13, 7, 2), (3, 3, 4, 1)]
)
def test_uneven_grid_solves(nranks, ny, nx, px):
    """A grid the image grid does not divide gets near-equal blocks, block
    ``k`` of ``n`` points over ``parts`` starting at ``k * n // parts``, and
    solves on both backends in both modes."""
    py = nranks // px
    origins = [(i // px * ny // py, i % px * nx // px) for i in range(nranks)]
    for backend in ("mpi", "gasnet"):
        for mode in ("push", "pull"):
            run = run_caf(
                run_cgpop, nranks, backend=backend, ny=ny, nx=nx, px=px, mode=mode
            )
            assert all(r.converged for r in run.results), (backend, mode)
            sol = run.cluster._shared["cgpop-solution"]
            assert [sol[i][:2] for i in range(nranks)] == origins
            assert verify_cgpop(sol, ny=ny, nx=nx, seed=11).passed, (backend, mode)


@pytest.mark.parametrize("nranks,ny,nx,px", [(4, 3, 4, 1), (4, 8, 3, 4)])
def test_grid_refusal_names_the_fix(nranks, ny, nx, px):
    with pytest.raises(CafError) as info:
        run_caf(run_cgpop, nranks, backend="mpi", ny=ny, nx=nx, px=px)
    assert str(info.value).endswith(GRID_HINT), str(info.value)


def test_east_west_halos_use_single_messages():
    """Column halos must travel as one message each, not per-element."""
    run = run_caf(
        run_cgpop, 4, backend="mpi", ny=16, nx=16, px=2,
        max_iter=2, tol=0.0, trace=True,
    )
    transfers = run.tracer.of_kind("transfer")
    # Every edge here, row or column, is 8 doubles = 64 bytes; one put of
    # an edge carries them plus a 48-byte RMA envelope.
    col_sized = [e for e in transfers if e.detail["nbytes"] == 64 + 48]
    per_exchange_links = 4 * 2  # 4 images x (east+west averages 1 each)
    exchanges = 1 + 2  # initial residual + 2 iterations
    assert len(col_sized) <= 4 * per_exchange_links * exchanges
