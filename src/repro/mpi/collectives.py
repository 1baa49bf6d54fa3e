"""Collective algorithms, modeled after the tuned MPICH implementations.

These run SPMD — every rank executes its side of the algorithm as one
*script* (a generator for ``Proc.run_script``: it yields its modelled costs
and waits, so a whole collective parks its caller once) using the
communicator's *collective* matching context — so their cost emerges from
real message traffic through the fabric. This matters for the paper's FFT
result: ``MPI_ALLTOALL`` here uses a pairwise exchange schedule (no incast
hotspot), while CAF-GASNet's hand-rolled all-to-all (see
:mod:`repro.gasnet.collectives`) blasts puts at every target and suffers
delivery-side contention.

Each collective first pays its per-call software overhead
(``mpi.coll_overhead``), then takes the next collective tag. All buffers
are contiguous NumPy arrays; reductions assume commutative ops (all
predefined ops here are commutative).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi import p2p
from repro.mpi.constants import SUM, Op
from repro.sim import costs as _costs
from repro.util.errors import MpiError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.comm import Comm


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or a.dtype != b.dtype:
        raise MpiError(
            f"{what}: send {a.dtype}{a.shape} and recv {b.dtype}{b.shape} differ"
        )


def barrier_steps(comm: "Comm"):
    """Dissemination barrier: ceil(log2(P)) rounds of zero-byte messages."""
    yield _costs.cost(comm.ctx, "mpi.coll_overhead")
    tag = comm._next_coll_tag()
    rank, size, matching = comm.rank, comm.size, comm._coll_matching
    k = 1
    while k < size:
        dst = (rank + k) % size
        src = (rank - k) % size
        yield from p2p.sendrecv_steps(comm, matching, None, dst, tag, None, src, tag)
        k <<= 1


def bcast_steps(comm: "Comm", buf, root: int = 0):
    """Binomial-tree broadcast (MPICH short-message algorithm)."""
    yield _costs.cost(comm.ctx, "mpi.coll_overhead")
    tag = comm._next_coll_tag()
    arr = np.asarray(buf)
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    vr = (rank - root) % size
    mask = 1
    while mask < size:
        if vr & mask:
            src = ((vr - mask) + root) % size
            yield from p2p.recv_steps(comm, comm._coll_matching, arr, src, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < size:
            dst = ((vr + mask) + root) % size
            yield from p2p.send_steps(comm, comm._coll_matching, arr, dst, tag)
        mask >>= 1


def reduce_steps(comm: "Comm", sendbuf, recvbuf, op: Op | None = None, root: int = 0):
    """Binomial-tree reduction toward ``root`` (commutative ops)."""
    op = op or SUM
    yield _costs.cost(comm.ctx, "mpi.coll_overhead")
    tag = comm._next_coll_tag()
    send = np.asarray(sendbuf)
    rank, size = comm.rank, comm.size
    acc = send.copy()
    if size > 1:
        vr = (rank - root) % size
        tmp = np.empty_like(acc)
        mask = 1
        while mask < size:
            if vr & mask == 0:
                partner_vr = vr | mask
                if partner_vr < size:
                    src = (partner_vr + root) % size
                    yield from p2p.recv_steps(comm, comm._coll_matching, tmp, src, tag)
                    acc = op(acc, tmp)
                    yield _costs.cost(comm.ctx, "flops", acc.size)  # one combine per element
            else:
                dst = ((vr - mask) + root) % size
                yield from p2p.send_steps(comm, comm._coll_matching, acc, dst, tag)
                break
            mask <<= 1
    if rank == root:
        recv = np.asarray(recvbuf)
        _check_same_shape(send, recv, "reduce")
        recv[...] = acc


def allreduce_steps(comm: "Comm", sendbuf, recvbuf, op: Op | None = None):
    """Recursive doubling for power-of-two sizes; reduce+bcast otherwise."""
    op = op or SUM
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    _check_same_shape(send, recv, "allreduce")
    size = comm.size
    if size & (size - 1) == 0 and size > 1:
        yield _costs.cost(comm.ctx, "mpi.coll_overhead")
        tag = comm._next_coll_tag()
        acc = send.copy()
        tmp = np.empty_like(acc)
        # Combined in place, so each buffer's byte view serves every round.
        acc_bytes, tmp_bytes = p2p._as_bytes_view(acc), p2p._as_bytes_view(tmp)
        mask = 1
        while mask < size:
            partner = comm.rank ^ mask
            yield from p2p.sendrecv_steps(
                comm, comm._coll_matching, acc_bytes, partner, tag, tmp_bytes, partner, tag
            )
            acc[...] = op(acc, tmp)
            yield _costs.cost(comm.ctx, "flops", acc.size)  # one combine per element
            mask <<= 1
        recv[...] = acc
    else:
        yield from reduce_steps(comm, send, recv, op, root=0)
        yield from bcast_steps(comm, recv, root=0)


#: MPICH-style algorithm selection for ``alltoall``: below this per-block
#: payload (and at or above ``_BRUCK_MIN_PROCS`` ranks) the latency term
#: dominates and Bruck's ceil(log2 P) aggregated rounds beat the pairwise
#: exchange's P-1 rounds. The thresholds keep every existing small-scale
#: run (and its golden digests) on the pairwise path.
_BRUCK_MAX_BLOCK_BYTES = 256
_BRUCK_MIN_PROCS = 32


def _alltoall_bruck_steps(comm: "Comm", send: np.ndarray, recv: np.ndarray, tag: int):
    """Bruck's algorithm: the MPICH short-message all-to-all.

    Three phases: a local rotation (block ``i`` moves to slot
    ``(i - rank) mod P``), ``ceil(log2 P)`` exchange rounds in which round
    ``k`` ships every slot whose index has bit ``2^k`` set to
    ``rank + 2^k`` (aggregated into one message), and a final inverse
    rotation into the receive buffer. Message count per rank drops from
    ``P - 1`` to ``ceil(log2 P)``, which is what makes 4096-rank FFT
    transposes simulable — and is the real reason MPICH switches
    algorithms at this scale.
    """
    rank, size = comm.rank, comm.size
    flat = np.ascontiguousarray(send).view(np.uint8).reshape(size, -1)
    # Phase 1: rotate so tmp[i] holds the block destined to rank+i.
    tmp = flat[(np.arange(size) + rank) % size].copy()
    yield _costs.cost(comm.ctx, "copy", tmp.nbytes)
    # Phase 2: log-round aggregated exchanges.
    pof2 = 1
    while pof2 < size:
        dst = (rank + pof2) % size
        src = (rank - pof2) % size
        sel = np.nonzero(np.arange(size) & pof2)[0]
        outgoing = np.ascontiguousarray(tmp[sel])
        incoming = np.empty_like(outgoing)
        yield _costs.cost(comm.ctx, "copy", outgoing.nbytes)  # pack
        yield from p2p.sendrecv_steps(
            comm, comm._coll_matching, outgoing, dst, tag, incoming, src, tag
        )
        tmp[sel] = incoming  # unpack into the same slots
        yield _costs.cost(comm.ctx, "copy", incoming.nbytes)
        pof2 <<= 1
    # Phase 3: tmp[i] now holds the block from rank-i; inverse-rotate it
    # into place.
    rflat = recv.view(np.uint8).reshape(size, -1)
    rflat[(rank - np.arange(size)) % size] = tmp
    yield _costs.cost(comm.ctx, "copy", tmp.nbytes)


def alltoall_steps(comm: "Comm", sendbuf, recvbuf):
    """All-to-all with MPICH's algorithm selection.

    ``sendbuf``/``recvbuf`` have shape ``(P, ...)``: row ``i`` goes to /
    comes from rank ``i``. Short blocks at scale take Bruck's log-round
    algorithm (:func:`_alltoall_bruck_steps`); everything else the pairwise
    exchange (MPICH's long-message algorithm).
    """
    yield _costs.cost(comm.ctx, "mpi.coll_overhead")
    tag = comm._next_coll_tag()
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    _check_same_shape(send, recv, "alltoall")
    rank, size = comm.rank, comm.size
    if send.shape[0] != size:
        raise MpiError(f"alltoall buffers must have leading dimension {size}")
    if (
        size >= _BRUCK_MIN_PROCS
        and send[rank].nbytes <= _BRUCK_MAX_BLOCK_BYTES
        and recv.flags.c_contiguous
    ):
        yield from _alltoall_bruck_steps(comm, send, recv, tag)
        return
    recv[rank] = send[rank]
    yield _costs.cost(comm.ctx, "copy", send[rank].nbytes)
    pow2 = size & (size - 1) == 0
    for i in range(1, size):
        if pow2:
            dst = src = rank ^ i
        else:
            dst = (rank + i) % size
            src = (rank - i) % size
        yield from p2p.sendrecv_steps(
            comm, comm._coll_matching, np.ascontiguousarray(send[dst]), dst, tag,
            recv[src], src, tag,
        )


def allgather_steps(comm: "Comm", sendbuf, recvbuf):
    """Ring allgather (bandwidth-optimal): P-1 neighbor forwarding steps."""
    yield _costs.cost(comm.ctx, "mpi.coll_overhead")
    tag = comm._next_coll_tag()
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    rank, size = comm.rank, comm.size
    if recv.shape[0] != size:
        raise MpiError(f"allgather recvbuf must have leading dimension {size}")
    recv[rank] = send
    yield _costs.cost(comm.ctx, "copy", send.nbytes)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        yield from p2p.sendrecv_steps(
            comm, comm._coll_matching, np.ascontiguousarray(recv[send_block]), right, tag,
            recv[recv_block], left, tag,
        )
