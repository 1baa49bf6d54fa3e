"""High-Performance Linpack on the CAF 2.0 API — §4.3 of the paper.

Right-looking blocked LU factorization without pivoting (the test matrix
is made strongly diagonally dominant, so pivoting is unnecessary for
stability), with a 1-D block-cyclic column distribution. Each iteration:

1. the owner of column-block ``k`` factorizes the panel (local compute),
2. the panel is **team-broadcast** to all images (an ``MPI_BCAST`` under
   CAF-MPI; a hand-rolled put/AM binomial tree under CAF-GASNet),
3. every image updates its own trailing column blocks — the triangular
   solve and the rank-``nb`` GEMM that dominate the flop count.

HPL's performance is compute-bound (2/3 N^3 flops), which is why the
paper finds the two runtimes indistinguishable here (Figures 9-10).
Local math runs as real NumPy so the factorization is verifiable; the
flops are charged to the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caf.image import Image
from repro.util.errors import CafError


@dataclass
class HplResult:
    nranks: int
    n: int
    block: int
    elapsed: float
    tflops: float


def make_matrix(seed: int, n: int) -> np.ndarray:
    """Random dense matrix, diagonally dominant (stable without pivoting)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[np.diag_indices(n)] += 2.0 * n
    return a


def run_hpl(img: Image, *, n: int = 192, block: int = 16, seed: int = 5) -> HplResult:
    """One image's SPMD body. The factors of this image's blocks land in
    ``img.cluster.shared('hpl-factors', dict)[rank]`` for validation."""
    p = img.nranks
    if n % block:
        raise CafError(f"block size {block} must divide N={n}")
    nblocks = n // block
    # Generated once per run (deterministic in the seed), like the FFT
    # input: each image copies out only its own column blocks.
    a = img.cluster.shared(("hpl-input", seed, n), lambda: make_matrix(seed, n))
    # Block-cyclic column distribution: block j lives on image j % P.
    mine = {j: a[:, j * block : (j + 1) * block].copy() for j in range(nblocks) if j % p == img.rank}
    img.cluster.shared("hpl-factors", dict)[img.rank] = mine

    img.sync_all()
    t0 = img.now

    panel = np.empty((n, block))
    for k in range(nblocks):
        owner = k % p
        row0 = k * block
        if owner == img.rank:
            blk = mine[k]
            # Unblocked LU of the panel A[row0:, k-block].
            sub = blk[row0:, :]
            for j in range(block):
                sub[j + 1 :, j] /= sub[j, j]
                sub[j + 1 :, j + 1 :] -= np.outer(sub[j + 1 :, j], sub[j, j + 1 :])
            rows = n - row0
            img.compute(flops=rows * block * block)
            panel[...] = blk
        img.team_broadcast(panel, root=owner)
        l11 = np.tril(panel[row0 : row0 + block, :], -1) + np.eye(block)
        l21 = panel[row0 + block :, :]
        for j, blk in mine.items():
            if j <= k:
                continue
            # U12 = L11^-1 A12 ; A22 -= L21 @ U12
            u12 = np.linalg.solve(l11, blk[row0 : row0 + block, :])
            blk[row0 : row0 + block, :] = u12
            blk[row0 + block :, :] -= l21 @ u12
            rows = n - row0 - block
            img.compute(flops=block * block * block + 2.0 * rows * block * block)

    img.sync_all()
    elapsed = img.now - t0
    flops = 2.0 / 3.0 * n**3
    return HplResult(
        nranks=p,
        n=n,
        block=block,
        elapsed=elapsed,
        tflops=flops / elapsed / 1e12 if elapsed > 0 else float("inf"),
    )


def assemble_lu(shared_factors: dict[int, dict[int, np.ndarray]], n: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild L and U from the distributed factored blocks (validation)."""
    lu = np.zeros((n, n))
    for mine in shared_factors.values():
        for j, blk in mine.items():
            lu[:, j * block : (j + 1) * block] = blk
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    return lower, upper
