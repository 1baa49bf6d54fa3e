"""MPI-3 subset implemented from scratch on the simulated cluster.

The pieces of MPI-3 the paper's CAF-MPI runtime needs (§2.2, §3):

* two-sided point-to-point with tag matching, wildcards, eager and
  rendezvous protocols (:mod:`repro.mpi.p2p`),
* collectives with tuned algorithms — the paper credits CAF-MPI's FFT win
  to ``MPI_ALLTOALL`` (:mod:`repro.mpi.collectives`),
* RMA windows with ``MPI_WIN_ALLOCATE``, passive-target synchronization
  (``LOCK_ALL`` / ``FLUSH`` / ``FLUSH_ALL``), request-generating operations
  (``RPUT`` / ``RGET``) and one-sided atomics (:mod:`repro.mpi.window`).

Behavioural fidelity knobs (on :class:`repro.sim.MachineSpec`):

* ``mpi_flush_all_per_target`` — MPICH-derivative ``MPI_WIN_FLUSH_ALL``
  walks every rank in the window's group, so its cost is linear in the
  number of processes (the paper's Figure 4 analysis).
* ``mpi_rma_over_sendrecv`` — Cray MPI implements RMA over send/recv
  internally (the paper's Figure 5 analysis).

Entry point: ``world = MpiWorld.get(ctx.cluster); mpi = world.init(ctx)``.
"""

from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    BAND,
    BOR,
    BXOR,
    LAND,
    LOR,
    LXOR,
    MAX,
    MIN,
    NO_OP,
    PROD,
    REPLACE,
    SUM,
)
from repro.mpi.request import Request, wait_all
from repro.mpi.status import Status
from repro.mpi.world import MpiRank, MpiWorld

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "BOR",
    "BXOR",
    "LAND",
    "LOR",
    "LXOR",
    "MAX",
    "MIN",
    "NO_OP",
    "PROD",
    "REPLACE",
    "SUM",
    "MpiRank",
    "MpiWorld",
    "Request",
    "Status",
    "wait_all",
]
