"""Shared recording helpers for the IR test suite."""

import numpy as np
import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.randomaccess import run_randomaccess
from repro.caf import run_caf
from repro.ir import record as ir_record
from repro.mpi.constants import SUM
from repro.platforms import PLATFORMS



def _async_collective(img):
    """CAF 2.0 async collective + cofence: the work runs on a progress agent."""
    recv = np.zeros(2)
    img.team_allreduce_async(np.full(2, float(img.rank)), recv, SUM)
    img.compute(seconds=1e-6)
    img.cofence()
    img.sync_all()
    return recv.tolist()


def _nonblocking_mpi(img):
    """Hybrid image: MPI-3 nonblocking collectives, on MPI's own agents."""
    comm = img.mpi().COMM_WORLD
    recv = np.zeros(2)
    reqs = [comm.iallreduce(np.full(2, float(img.rank)), recv), comm.ibarrier()]
    img.compute(seconds=1e-6)
    for req in reqs:
        req.wait()
    img.sync_all()
    return recv.tolist()


#: (label, program, program kwargs) — small enough for a sub-second run,
#: structured enough to exercise transfers, collectives, and sync ops.
APPS = {
    "ra": (run_randomaccess,
           dict(table_bits_per_image=8, updates_per_image=256, batches=2)),
    "fft": (run_fft, dict(m=256)),
    "cgpop": (run_cgpop, dict(ny=16, nx=8, max_iter=40)),
    "async-coll": (_async_collective, {}),
    "nbc": (_nonblocking_mpi, {}),
}


def record_run(tmp_path, app, backend, platform, nranks=4):
    """Run one instrumented app with recording on; return (run, trace)."""
    program, kwargs = APPS[app]
    stem = tmp_path / f"{app}-{backend}-{platform}.npz"
    with ir_record.recording(stem):
        run = run_caf(program, nranks, PLATFORMS[platform],
                      backend=backend, **kwargs)
    trace = ir_record.last_trace()
    assert trace is not None
    return run, trace


@pytest.fixture
def record(tmp_path):
    return lambda *a, **kw: record_run(tmp_path, *a, **kw)
