"""FFT: distributed spectrum must match numpy.fft on the same input."""

import tracemalloc

import numpy as np
import pytest

from repro.apps.fft import make_input, run_fft
from repro.caf import run_caf
from repro.util.errors import CafError


def gathered_output(run, nranks):
    chunks = run.cluster._shared["fft-output"]
    return np.concatenate([chunks[r] for r in range(nranks)])


@pytest.mark.parametrize("nranks", [1, 2, 4, 8])
def test_spectrum_matches_numpy(backend, nranks):
    m = 1 << 10
    run = run_caf(run_fft, nranks, backend=backend, m=m, seed=3)
    got = gathered_output(run, nranks)
    expected = np.fft.fft(make_input(3, m))
    assert np.allclose(got, expected, atol=1e-8)


@pytest.mark.parametrize("m_log", [8, 12, 14])
def test_various_sizes(backend, m_log):
    m = 1 << m_log
    run = run_caf(run_fft, 4, backend=backend, m=m)
    got = gathered_output(run, 4)
    expected = np.fft.fft(make_input(7, m))
    assert np.allclose(got, expected, atol=1e-7)


def test_run_holds_at_most_five_signal_copies(backend):
    """An image keeps only live operands: each stage's input is dropped
    once the next stage's output exists, and its input block is a view of
    the shared signal. Measured in full m-point complex signals of traced
    bytes; keeping every stage alive peaked at 9.1 copies."""
    m = 1 << 16
    run_caf(run_fft, 2, backend=backend, m=256)  # first-call caches stay outside
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run_caf(run_fft, 8, backend=backend, m=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - base) / (16 * m) <= 5


def test_gflops_metric(backend):
    run = run_caf(run_fft, 4, backend=backend, m=1 << 12)
    for res in run.results:
        assert res.gflops > 0
        assert res.m == 1 << 12


def test_non_power_of_two_rejected(backend):
    with pytest.raises(CafError, match="power of two"):
        run_caf(run_fft, 2, backend=backend, m=1000)


def test_too_many_ranks_rejected(backend):
    # m = 2^6: n1 = 8, n2 = 8; P = 16 cannot divide them.
    with pytest.raises(CafError, match="divisible"):
        run_caf(run_fft, 16, backend=backend, m=1 << 6)


def test_alltoall_dominates_profile():
    run = run_caf(run_fft, 8, backend="gasnet", m=1 << 14)
    prof = run.profiler
    assert prof.total("alltoall") > 0
    assert prof.counts[0]["alltoall"] == 3  # three transposes


def test_caf_mpi_fft_faster_than_caf_gasnet():
    """The Figure 6/7 headline: CAF-MPI wins FFT via MPI_ALLTOALL."""
    from repro.sim.network import MachineSpec

    spec = MachineSpec(name="t", ranks_per_node=1, gasnet_srq_threshold=8)
    m = 1 << 14
    mpi = run_caf(run_fft, 8, spec, backend="mpi", m=m)
    gas = run_caf(run_fft, 8, spec, backend="gasnet", m=m)
    assert mpi.results[0].gflops > gas.results[0].gflops
