"""MPI+CAF interoperability: the paper's motivating scenarios (§1, Figs 1-2)."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.mpi.constants import SUM
from repro.util.errors import DeadlockError


def test_hybrid_program_uses_both_models(backend):
    """A CGPOP-style hybrid: coarray halo exchange + MPI_Allreduce."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        mpi = img.mpi()
        co.write((img.rank + 1) % img.nranks, np.full(4, float(img.rank)))
        img.sync_all()
        local_sum = np.array([co.local.sum()])
        total = np.zeros(1)
        mpi.COMM_WORLD.allreduce(local_sum, total, SUM)
        return total[0]

    run = run_caf(program, 4, backend=backend)
    expected = 4 * sum(range(4))  # each rank's coarray holds 4 * left-neighbor
    assert all(r == expected for r in run.results)


def test_figure2_deadlock_under_am_writes_backend():
    """Figure 2: rank 0's coarray write needs rank 1 to make CAF progress,
    but rank 1 is blocked in MPI_BARRIER, which cannot run AM handlers."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        mpi = img.mpi()
        img.sync_all()
        if img.rank == 0:
            co.write(1, np.full(4, 1.0))  # AM path: needs target progress
        mpi.COMM_WORLD.barrier()

    with pytest.raises(DeadlockError) as ei:
        run_caf(program, 2, backend="gasnet", backend_options={"am_writes": True})
    # The diagnostic names both stuck call sites — the write is one script
    # now, and parks under the reason its last wait gave.
    assert ei.value.blocked == {0: "am_write ack", 1: "wait(req:irecv(src=0,tag=0))"}


def test_figure2_program_completes_under_caf_mpi():
    """The same program is deadlock-free when coarray writes are true
    one-sided MPI_PUTs (the paper's CAF-MPI design)."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        mpi = img.mpi()
        img.sync_all()
        if img.rank == 0:
            co.write(1, np.full(4, 1.0))
        mpi.COMM_WORLD.barrier()
        return co.local[0]

    run = run_caf(program, 2, backend="mpi")
    assert run.results[1] == 1.0


def test_figure2_program_completes_under_rdma_gasnet():
    """Plain CAF-GASNet (RDMA puts) also avoids the Figure 2 deadlock —
    the hazard is implementation-specific, as the paper notes."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        mpi = img.mpi()
        img.sync_all()
        if img.rank == 0:
            co.write(1, np.full(4, 1.0))
        mpi.COMM_WORLD.barrier()
        return co.local[0]

    run = run_caf(program, 2, backend="gasnet")
    assert run.results[1] == 1.0


def test_figure1_memory_duplication_shapes():
    """Figure 1: GASNet-only < MPI-only < duplicated runtimes, growing with P."""

    def caf_only(img):
        return img.ctx.memory.rank_mb(img.rank, prefix="gasnet/base") + \
            img.ctx.memory.rank_mb(img.rank, prefix="gasnet/rbuf")

    def hybrid(img):
        img.mpi()
        gasnet_mb = img.ctx.memory.rank_mb(img.rank, prefix="gasnet/base")
        mpi_mb = img.ctx.memory.rank_mb(img.rank, prefix="mpi/base") + \
            img.ctx.memory.rank_mb(img.rank, prefix="mpi/peers")
        return gasnet_mb, mpi_mb

    sizes = [4, 16]
    duplicates = []
    for n in sizes:
        run = run_caf(hybrid, n, backend="gasnet")
        gasnet_mb, mpi_mb = run.results[0]
        assert mpi_mb > gasnet_mb
        duplicates.append(gasnet_mb + mpi_mb)
    assert duplicates[1] > duplicates[0]  # grows with process count
    del caf_only


def test_caf_mpi_single_runtime_no_duplication():
    """Under CAF-MPI the hybrid application shares one runtime."""

    def program(img):
        img.mpi()  # same runtime the backend already initialized
        return img.ctx.memory.rank_mb(img.rank, prefix="gasnet/")

    run = run_caf(program, 4, backend="mpi")
    assert all(mb == 0.0 for mb in run.results)  # no GASNet footprint at all
