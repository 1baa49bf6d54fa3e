"""HPCC FFT on the CAF 2.0 API — §4.2 of the paper.

Distributed 1-D complex DFT of size ``m = n1 * n2`` via the transpose
(four-step) algorithm, whose data movement is **solely all-to-all**
(matching the paper's description of the CAF 2.0 FFT): three distributed
transposes, each one ``team_alltoall``, interleaved with local FFT phases
and a twiddle scaling.

Math (row-major ``x[j1*n2 + j2] = A[j1, j2]``)::

    X[k2*n1 + k1] = FFT_j2( twiddle(j2,k1) * FFT_j1(A)[k1, j2] )[k1, k2]

so: transpose -> length-n1 FFTs -> twiddle -> transpose -> length-n2 FFTs
-> transpose (into natural output order).

Local FFTs run as real ``numpy.fft`` calls (verifiable output) while
``5 n log2 n`` flops per transform are charged to the virtual clock.
The figure of merit is GFlop/s ``= 5 m log2(m) / t / 1e9``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caf.image import Image
from repro.util.errors import CafError


@dataclass
class FftResult:
    nranks: int
    m: int
    elapsed: float
    gflops: float


def make_input(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Filled in place, real part drawn first: no complex temporaries.
    x = np.empty(m, np.complex128)
    x.real = rng.standard_normal(m)
    x.imag = rng.standard_normal(m)
    return x


def _distributed_transpose(img: Image, local: np.ndarray) -> np.ndarray:
    """All-to-all transpose of a block-row-distributed matrix.

    ``local`` is (rows_per, cols) where cols is divisible by P; returns
    (cols // P, rows_per * P) — this image's rows of the transpose.
    """
    p = img.nranks
    rows_per, cols = local.shape
    if cols % p:
        raise CafError(f"transpose needs P | cols ({cols} % {p})")
    cols_per = cols // p
    # send[j] = my rows of column-block j
    send = np.ascontiguousarray(
        local.reshape(rows_per, p, cols_per).transpose(1, 0, 2)
    )
    recv = np.empty_like(send)  # recv[i] = rows (i's row-block) x my cols
    img.team_alltoall(send, recv)
    del send
    # Assemble: transpose each received block and lay side by side —
    # out[:, src*rows_per + r] = recv[src, r, :], vectorized (a per-source
    # loop is O(P) host work per rank, quadratic across the job).
    out = np.ascontiguousarray(
        recv.transpose(2, 0, 1).reshape(cols_per, rows_per * p)
    )
    img.compute(flops=2 * out.size)  # pack/unpack cost
    return out


def _local_fft_rows(img: Image, mat: np.ndarray) -> np.ndarray:
    rows, n = mat.shape
    out = np.fft.fft(mat, axis=1)
    img.compute(flops=5.0 * rows * n * max(np.log2(n), 1.0))
    return out


def run_fft(img: Image, *, m: int = 1 << 12, seed: int = 7) -> FftResult:
    """One image's SPMD body; the gathered spectrum lands in
    ``img.cluster.shared('fft-output', dict)[rank]`` (this image's chunk).

    Host memory, counted in full m-point signals summed over the images:
    the shared input and the gathered output are inherent (the result, and
    what :func:`~repro.apps.verification.verify_fft` checks against). So is
    a transpose's working set — its operand, the packed send buffer and the
    receive buffer, since an out-of-place all-to-all cannot overwrite what
    it still sends. Nothing else is kept: each stage's input is dropped
    once the next stage's output exists, and the twiddle is applied in
    place. At P = 8 the traced peak is 4.2 signals (9.1 when every stage
    stayed alive until return).
    """
    p = img.nranks
    if m & (m - 1):
        raise CafError("FFT size must be a power of two")
    log_m = int(np.log2(m))
    n1 = 1 << (log_m // 2)
    n2 = m // n1
    if n1 % p or n2 % p:
        raise CafError(f"FFT factors ({n1} x {n2}) must be divisible by P={p}")

    # Block-row distribution of the n1 x n2 input matrix. The generator
    # output is shared across images and each reads its row block in place:
    # per-rank generation or copies would cost O(m) memory per image, which
    # at paper scale (4096 ranks, m = 2^24) is hundreds of GB.
    x = img.cluster.shared(("fft-input", seed, m), lambda: make_input(seed, m))
    rows_per = n1 // p
    local = x.reshape(n1, n2)[img.rank * rows_per : (img.rank + 1) * rows_per]

    img.sync_all()
    t0 = img.now

    # Each stage's input is dropped as soon as its output exists.
    # Step 1: transpose so each image holds full columns of A (length n1).
    at = _distributed_transpose(img, local)  # (n2/P, n1)
    del local
    # Step 2: length-n1 FFTs over j1.
    bt = _local_fft_rows(img, at)  # B^T[j2, k1]
    del at
    # Step 3: twiddle B^T[j2, k1] *= exp(-2 pi i j2 k1 / m), in place: the
    # same IEEE operations in the same order as exp(-2j*pi*(j2*k1)/m).
    j2 = np.arange(img.rank * (n2 // p), (img.rank + 1) * (n2 // p))[:, None]
    k1 = np.arange(n1)[None, :]
    tw = -2j * np.pi * (j2 * k1)
    tw /= m
    np.exp(tw, out=tw)
    bt *= tw
    del tw
    img.compute(flops=6.0 * bt.size)
    # Step 4: transpose back -> rows k1 of B.
    b = _distributed_transpose(img, bt)  # (n1/P, n2)
    del bt
    # Step 5: length-n2 FFTs over j2 -> C[k1, k2].
    c = _local_fft_rows(img, b)
    del b
    # Step 6: transpose -> rows k2 of C^T; flattening gives natural order.
    ct = _distributed_transpose(img, c)  # (n2/P, n1)
    del c

    elapsed = img.now - t0
    img.cluster.shared("fft-output", dict)[img.rank] = ct.reshape(-1)
    flops = 5.0 * m * log_m
    return FftResult(
        nranks=p,
        m=m,
        elapsed=elapsed,
        gflops=flops / elapsed / 1e9 if elapsed > 0 else float("inf"),
    )
