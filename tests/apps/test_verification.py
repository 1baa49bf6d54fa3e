"""HPCC-style verification phases over real benchmark runs."""

import numpy as np
import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import make_input, run_fft
from repro.apps.hpl import run_hpl
from repro.apps.randomaccess import reference_tables, run_randomaccess
from repro.apps.verification import (
    verify_cgpop,
    verify_fft,
    verify_hpl,
    verify_randomaccess,
)
from repro.caf import run_caf


def test_randomaccess_verification_passes(backend):
    kw = dict(table_bits_per_image=6, updates_per_image=256, batches=4, seed=5)
    run = run_caf(run_randomaccess, 4, backend=backend, **kw)
    report = verify_randomaccess(
        run.cluster._shared["ra-tables"],
        seed=5,
        nranks=4,
        table_bits_per_image=6,
        updates_per_image=256,
    )
    assert report.passed
    assert report.value == 0.0  # our routing loses nothing


def test_randomaccess_verification_detects_corruption(backend):
    kw = dict(table_bits_per_image=6, updates_per_image=256, batches=4, seed=5)
    run = run_caf(run_randomaccess, 4, backend=backend, **kw)
    tables = run.cluster._shared["ra-tables"]
    tables[2][:10] ^= np.uint64(0xDEADBEEF)  # corrupt ten entries
    report = verify_randomaccess(
        tables, seed=5, nranks=4, table_bits_per_image=6, updates_per_image=256
    )
    assert not report.passed
    assert report.value == pytest.approx(10 / (4 * 64))


def test_randomaccess_verification_counts_a_missing_table_as_all_wrong():
    """A partition nobody wrote back fails the check; it does not raise."""
    tables = dict(enumerate(reference_tables(5, 4, 6, 256)))
    del tables[3]
    report = verify_randomaccess(
        tables, seed=5, nranks=4, table_bits_per_image=6, updates_per_image=256
    )
    assert not report.passed
    assert report.value == 1 / 4


def test_fft_verification_passes(backend):
    m = 1 << 10
    run = run_caf(run_fft, 4, backend=backend, m=m, seed=9)
    report = verify_fft(run.cluster._shared["fft-output"], make_input(9, m))
    assert report.passed


def test_fft_verification_detects_wrong_spectrum():
    m = 1 << 10
    run = run_caf(run_fft, 2, backend="mpi", m=m, seed=9)
    chunks = run.cluster._shared["fft-output"]
    chunks[1] = chunks[1] * 1.01  # 1% amplitude error
    report = verify_fft(chunks, make_input(9, m))
    assert not report.passed


def test_hpl_verification_passes(backend):
    run = run_caf(run_hpl, 3, backend=backend, n=96, block=16, seed=4)
    report = verify_hpl(
        run.cluster._shared["hpl-factors"], n=96, block=16, seed=4
    )
    assert report.passed


def test_hpl_verification_detects_bad_factor():
    run = run_caf(run_hpl, 2, backend="mpi", n=64, block=16, seed=4)
    factors = run.cluster._shared["hpl-factors"]
    next(iter(factors[0].values()))[10, 3] += 0.5
    report = verify_hpl(factors, n=64, block=16, seed=4)
    assert not report.passed


def test_cgpop_verification_passes(backend):
    run = run_caf(run_cgpop, 4, backend=backend, ny=16, nx=8, seed=3, tol=1e-10)
    report = verify_cgpop(
        run.cluster._shared["cgpop-solution"], ny=16, nx=8, seed=3
    )
    assert report.passed


def test_report_renders():
    from repro.apps.verification import VerificationReport

    r = VerificationReport("X", "m", 1.0, 2.0, True)
    assert "PASS" in str(r)
    r2 = VerificationReport("X", "m", 3.0, 2.0, False)
    assert "FAIL" in str(r2)
