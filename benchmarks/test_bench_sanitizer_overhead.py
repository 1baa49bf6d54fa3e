"""Bench: sanitizer overhead — sanitized vs. plain wall time on the two
communication-heavy paper apps, and on RandomAccess over CAF-MPI, whose
every ``event_notify`` flushes a window the checker tracks.

The checker must be *free when off* (``sanitize=False`` takes one flag
check) and *affordable when on*: vector-clock ticks and shadow-record
bookkeeping are pure host-side Python, so the bound here is generous but
catches accidental O(records^2) regressions. Virtual time must be
bit-for-bit identical either way — the hooks never sleep or schedule.
"""

import time

from repro.apps.fft import run_fft
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf

CASES = {
    "randomaccess": (run_randomaccess, dict(updates_per_image=256, seed=7)),
    "fft": (run_fft, dict(m=1024, seed=7)),
}

#: Host wall-time multiplier allowed for a sanitized run. RandomAccess is
#: all fine-grained remote updates (worst case for shadow bookkeeping);
#: anything past this means the checker stopped being O(accesses).
MAX_OVERHEAD = 25.0


def _wall(program, kwargs, sanitize, backend):
    t0 = time.perf_counter()
    run = run_caf(program, 8, backend=backend, sanitize=sanitize, **kwargs)
    return time.perf_counter() - t0, run


def _measure(name, backend="gasnet"):
    program, kwargs = CASES[name]
    # Warm once (imports, numpy caches), then time each mode.
    _wall(program, kwargs, False, backend)
    plain_t, plain = _wall(program, kwargs, False, backend)
    san_t, san = _wall(program, kwargs, True, backend)
    return plain_t, plain, san_t, san


def test_bench_sanitizer_overhead_randomaccess(benchmark):
    program, kwargs = CASES["randomaccess"]
    plain_t, plain, san_t, san = _measure("randomaccess")
    benchmark.pedantic(
        lambda: run_caf(program, 8, backend="gasnet", sanitize=True, **kwargs),
        rounds=1,
        iterations=1,
    )
    assert san.sanitizer.report.clean
    assert san.sanitizer.report.stats["records"] > 0
    # Timeline neutrality: virtual elapsed identical with the checker on.
    assert san.elapsed == plain.elapsed
    assert san_t < MAX_OVERHEAD * max(plain_t, 1e-3)


def test_bench_sanitizer_overhead_randomaccess_mpi(benchmark):
    program, kwargs = CASES["randomaccess"]
    plain_t, plain, san_t, san = _measure("randomaccess", backend="mpi")
    benchmark.pedantic(
        lambda: run_caf(program, 8, backend="mpi", sanitize=True, **kwargs),
        rounds=1,
        iterations=1,
    )
    assert san.sanitizer.report.clean
    assert san.sanitizer.report.stats["released"] > 0  # flushes release records
    assert san.elapsed == plain.elapsed
    assert san_t < MAX_OVERHEAD * max(plain_t, 1e-3)


def test_bench_sanitizer_overhead_fft(benchmark):
    program, kwargs = CASES["fft"]
    plain_t, plain, san_t, san = _measure("fft")
    benchmark.pedantic(
        lambda: run_caf(program, 8, backend="gasnet", sanitize=True, **kwargs),
        rounds=1,
        iterations=1,
    )
    assert san.sanitizer.report.clean
    assert san.elapsed == plain.elapsed
    assert san_t < MAX_OVERHEAD * max(plain_t, 1e-3)
