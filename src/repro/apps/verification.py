"""HPCC-style verification phases for the benchmark applications.

The real HPC Challenge benchmarks do not just time their kernels — each
run re-checks its own answer (RandomAccess re-applies the update stream
and counts mismatched table entries, tolerating a small error fraction
from unsynchronized updates; FFT applies an inverse transform and takes a
residual; HPL computes the scaled residual of the solved system). These
are those checks, adapted to the reproduction's applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.hpl import assemble_lu, make_matrix
from repro.apps.randomaccess import reference_tables


@dataclass
class VerificationReport:
    benchmark: str
    metric: str
    value: float
    threshold: float
    passed: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.benchmark}: {self.metric} = {self.value:.3e} "
            f"(threshold {self.threshold:.3e})"
        )


def verify_randomaccess(
    tables: dict[int, np.ndarray],
    *,
    seed: int,
    nranks: int,
    table_bits_per_image: int,
    updates_per_image: int,
    tolerated_error_fraction: float = 0.01,
) -> VerificationReport:
    """HPCC RandomAccess verification: re-apply the update stream (XOR is
    self-inverse, so that is XOR with the serial reference) and count table
    entries that fail to return to zero. A partition with no table counts
    as wrong in every entry."""
    reference = reference_tables(seed, nranks, table_bits_per_image, updates_per_image)
    local_size = 1 << table_bits_per_image
    errors = sum(
        int(np.count_nonzero(tables[r] ^ reference[r])) if r in tables else local_size
        for r in range(nranks)
    )
    fraction = errors / (local_size * nranks)
    return VerificationReport(
        benchmark="RandomAccess",
        metric="fraction of incorrect table entries",
        value=fraction,
        threshold=tolerated_error_fraction,
        passed=fraction <= tolerated_error_fraction,
    )


def verify_fft(
    output_chunks: dict[int, np.ndarray],
    input_signal: np.ndarray,
    *,
    threshold_factor: float = 16.0,
) -> VerificationReport:
    """HPCC FFT verification: inverse-transform the computed spectrum and
    measure the scaled residual against the original signal."""
    nranks = len(output_chunks)
    # At most two full-size buffers: the gathered spectrum is dropped once
    # its inverse exists, and the input is subtracted in place. (ifft's
    # ``out=`` would save the second but needs numpy >= 2.0.)
    spectrum = np.concatenate([output_chunks[r] for r in range(nranks)])
    m = spectrum.size
    roundtrip = np.fft.ifft(spectrum)
    del spectrum
    roundtrip -= input_signal
    eps = np.finfo(np.float64).eps
    residual = float(np.abs(roundtrip).max() / (eps * np.log2(m)))
    return VerificationReport(
        benchmark="FFT",
        metric="max |ifft(FFT(x)) - x| / (eps log2 m)",
        value=residual,
        threshold=threshold_factor,
        passed=residual < threshold_factor,
    )


def verify_hpl(
    shared_factors: dict[int, dict[int, np.ndarray]],
    *,
    n: int,
    block: int,
    seed: int,
    threshold_factor: float = 16.0,
) -> VerificationReport:
    """HPL verification: solve Ax = b from the distributed LU factors and
    compute the standard scaled residual
    ``||Ax - b||_inf / (eps ||A||_inf ||x||_inf n)``."""
    from scipy.linalg import solve_triangular

    lower, upper = assemble_lu(shared_factors, n, block)
    a = make_matrix(seed, n)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n)
    y = solve_triangular(lower, b, lower=True, unit_diagonal=True)
    x = solve_triangular(upper, y)
    eps = np.finfo(np.float64).eps
    residual = float(
        np.abs(a @ x - b).max()
        / (eps * np.abs(a).sum(axis=1).max() * np.abs(x).max() * n)
    )
    return VerificationReport(
        benchmark="HPL",
        metric="||Ax-b||_inf / (eps ||A||_inf ||x||_inf n)",
        value=residual,
        threshold=threshold_factor,
        passed=residual < threshold_factor,
    )


def verify_cgpop(
    solution_blocks: dict[int, tuple[int, int, np.ndarray]],
    *,
    ny: int,
    nx: int,
    seed: int,
    threshold: float = 1e-6,
) -> VerificationReport:
    """CGPOP verification: residual of the solution assembled from its
    ``(row0, col0, block)`` records against the 5-point system (relative
    to ||b||)."""
    from repro.apps.cgpop import apply_laplacian, assemble_solution, make_rhs

    x = assemble_solution(solution_blocks, ny, nx)
    b = make_rhs(seed, ny, nx)
    ax = apply_laplacian(x, np.zeros(nx), np.zeros(nx), np.zeros(ny), np.zeros(ny))
    rel = float(np.linalg.norm(ax - b) / np.linalg.norm(b))
    return VerificationReport(
        benchmark="CGPOP",
        metric="||Ax-b|| / ||b||",
        value=rel,
        threshold=threshold,
        passed=rel < threshold,
    )
