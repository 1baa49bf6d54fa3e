"""Shared fixtures for CAF-layer tests: everything runs on both backends."""

import pytest

from repro.caf import run_caf

BACKENDS = ["mpi", "gasnet"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def mpi_handoffs_per_call(program, nranks, calls=10):
    """Extra ``Engine.handoffs`` of ``calls`` more calls in ``program(img,
    n)`` on CAF-MPI, per call per rank (start-up and the first call are in
    both runs). Exact on any host."""
    few = run_caf(program, nranks, backend="mpi", n=1)
    many = run_caf(program, nranks, backend="mpi", n=1 + calls)
    extra = many.cluster.engine.handoffs - few.cluster.engine.handoffs
    return extra / (calls * nranks)
