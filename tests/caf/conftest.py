"""Shared fixtures for CAF-layer tests: everything runs on both backends."""

import pytest

from repro.caf import run_caf
from repro.sim.network import MachineSpec

BACKENDS = ["mpi", "gasnet"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def handoffs_per_call(program, nranks, backend="mpi", spec=None, calls=10, options=None):
    """Extra ``Engine.handoffs`` of ``calls`` more calls in ``program(img,
    n)`` on ``backend`` (with backend ``options``), per call per rank
    (start-up and the first call are in both runs). Exact on any host."""
    kw = dict(backend=backend, backend_options=options)
    few = run_caf(program, nranks, spec, n=1, **kw)
    many = run_caf(program, nranks, spec, n=1 + calls, **kw)
    extra = many.cluster.engine.handoffs - few.cluster.engine.handoffs
    return extra / (calls * nranks)


@pytest.fixture(params=["put", "am"])
def gasnet_signal_spec(request):
    """A machine per ``gasnet_coll_signal`` mode (flag puts / short AMs)."""
    return MachineSpec("generic").with_overrides(gasnet_coll_signal=request.param)
