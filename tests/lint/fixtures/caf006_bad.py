"""CAF006 true positives: the paper's Figure 2 interoperability deadlock."""

from repro.gasnet.core import GasnetWorld
from repro.mpi.request import wait_all
from repro.mpi.world import MpiWorld


def figure2(img):
    # Verbatim shape of the paper's Figure 2: rank 0 writes a coarray,
    # then every image enters MPI_BARRIER with the write unsynced.
    co = img.allocate_coarray(4)
    mpi = img.mpi()
    img.sync_all()
    if img.rank == 0:
        co.write(1, [1.0] * 4)
    mpi.COMM_WORLD.barrier()  # expected: CAF006


def blocks_in_both_runtimes(cluster, ctx):
    gas = GasnetWorld.get(cluster).attach(ctx, 1 << 16)
    mpi = MpiWorld.get(cluster).init(ctx)
    gas.wait_syncnb_all([])
    mpi.COMM_WORLD.barrier()  # expected: CAF006


def waitall_with_put_pending(img, reqs):
    # Same shape with the request-completion call: wait_all blocks in MPI
    # until every request completes, and the put's target may be in it too.
    co = img.allocate_coarray(4)
    co.write((img.rank + 1) % img.nranks, [1.0] * 4)
    wait_all(reqs)  # expected: CAF006
