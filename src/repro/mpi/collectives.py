"""Collective algorithms, modeled after the tuned MPICH implementations.

These run SPMD — every rank executes its side of the algorithm on its own
simulated thread using the communicator's *collective* matching context —
so their cost emerges from real message traffic through the fabric. This
matters for the paper's FFT result: ``MPI_ALLTOALL`` here uses a pairwise
exchange schedule (no incast hotspot), while CAF-GASNet's hand-rolled
all-to-all (see :mod:`repro.gasnet.collectives`) blasts puts at every
target and suffers delivery-side contention.

All buffers are contiguous NumPy arrays; reductions assume commutative ops
(all predefined ops here are commutative).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import SUM, Op
from repro.sim import costs as _costs
from repro.util.errors import MpiError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.comm import Comm


def _enter(comm: "Comm") -> int:
    """Charge the per-call software overhead; returns this collective's tag."""
    _costs.charge(comm.ctx, "mpi.coll_overhead")
    return comm._next_coll_tag()


def _charge_reduce_flops(comm: "Comm", nelems: int) -> None:
    # One combine per element; charged as virtual compute.
    _costs.charge(comm.ctx, "flops", nelems)


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or a.dtype != b.dtype:
        raise MpiError(
            f"{what}: send {a.dtype}{a.shape} and recv {b.dtype}{b.shape} differ"
        )


def barrier(comm: "Comm") -> None:
    """Dissemination barrier: ceil(log2(P)) rounds of zero-byte messages."""
    tag = _enter(comm)
    rank, size = comm.rank, comm.size
    empty = np.empty(0, np.uint8)
    k = 1
    while k < size:
        dst = (rank + k) % size
        src = (rank - k) % size
        comm._coll_sendrecv(empty, dst, np.empty(0, np.uint8), src, tag)
        k <<= 1


def bcast(comm: "Comm", buf, root: int = 0) -> None:
    """Binomial-tree broadcast (MPICH short-message algorithm)."""
    tag = _enter(comm)
    arr = np.asarray(buf)
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    vr = (rank - root) % size
    mask = 1
    while mask < size:
        if vr & mask:
            src = ((vr - mask) + root) % size
            comm._coll_recv(arr, src, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < size:
            dst = ((vr + mask) + root) % size
            comm._coll_send(arr, dst, tag)
        mask >>= 1


def reduce(comm: "Comm", sendbuf, recvbuf, op: Op | None = None, root: int = 0) -> None:
    """Binomial-tree reduction toward ``root`` (commutative ops)."""
    op = op or SUM
    tag = _enter(comm)
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
                    comm._coll_recv(tmp, src, tag)
                    acc = op(acc, tmp)
                    _charge_reduce_flops(comm, acc.size)
            else:
                dst = ((vr - mask) + root) % size
                comm._coll_send(acc, dst, tag)
                break
            mask <<= 1
    if rank == root:
        recv = np.asarray(recvbuf)
        _check_same_shape(send, recv, "reduce")
        recv[...] = acc


def allreduce(comm: "Comm", sendbuf, recvbuf, op: Op | None = None) -> None:
    """Recursive doubling for power-of-two sizes; reduce+bcast otherwise."""
    op = op or SUM
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    _check_same_shape(send, recv, "allreduce")
    size = comm.size
    if size & (size - 1) == 0 and size > 1:
        tag = _enter(comm)
        acc = send.copy()
        tmp = np.empty_like(acc)
        mask = 1
        while mask < size:
            partner = comm.rank ^ mask
            comm._coll_sendrecv(acc, partner, tmp, partner, tag)
            acc = op(acc, tmp)
            _charge_reduce_flops(comm, acc.size)
            mask <<= 1
        recv[...] = acc
    else:
        reduce(comm, send, recv, op, root=0)
        bcast(comm, recv, root=0)


#: MPICH-style algorithm selection for ``alltoall``: below this per-block
#: payload (and at or above ``_BRUCK_MIN_PROCS`` ranks) the latency term
#: dominates and Bruck's ceil(log2 P) aggregated rounds beat the pairwise
#: exchange's P-1 rounds. The thresholds keep every existing small-scale
#: run (and its golden digests) on the pairwise path.
_BRUCK_MAX_BLOCK_BYTES = 256
_BRUCK_MIN_PROCS = 32


def _alltoall_bruck(comm: "Comm", send: np.ndarray, recv: np.ndarray, tag: int) -> None:
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
    _costs.charge(comm.ctx, "copy", tmp.nbytes)
    # Phase 2: log-round aggregated exchanges.
    pof2 = 1
    while pof2 < size:
        dst = (rank + pof2) % size
        src = (rank - pof2) % size
        sel = np.nonzero(np.arange(size) & pof2)[0]
        outgoing = np.ascontiguousarray(tmp[sel])
        incoming = np.empty_like(outgoing)
        _costs.charge(comm.ctx, "copy", outgoing.nbytes)  # pack
        comm._coll_sendrecv(outgoing, dst, incoming, src, tag)
        tmp[sel] = incoming  # unpack into the same slots
        _costs.charge(comm.ctx, "copy", incoming.nbytes)
        pof2 <<= 1
    # Phase 3: tmp[i] now holds the block from rank-i; inverse-rotate it
    # into place.
    rflat = recv.view(np.uint8).reshape(size, -1)
    rflat[(rank - np.arange(size)) % size] = tmp
    _costs.charge(comm.ctx, "copy", tmp.nbytes)


def alltoall(comm: "Comm", sendbuf, recvbuf) -> None:
    """All-to-all with MPICH's algorithm selection.

    ``sendbuf``/``recvbuf`` have shape ``(P, ...)``: row ``i`` goes to /
    comes from rank ``i``. Short blocks at scale take Bruck's log-round
    algorithm (:func:`_alltoall_bruck`); everything else the pairwise
    exchange (MPICH's long-message algorithm).
    """
    tag = _enter(comm)
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
        _alltoall_bruck(comm, send, recv, tag)
        return
    recv[rank] = send[rank]
    _costs.charge(comm.ctx, "copy", send[rank].nbytes)
    pow2 = size & (size - 1) == 0
    for i in range(1, size):
        if pow2:
            dst = src = rank ^ i
        else:
            dst = (rank + i) % size
            src = (rank - i) % size
        comm._coll_sendrecv(
            np.ascontiguousarray(send[dst]), dst, recv[src], src, tag
        )


def alltoallv(comm: "Comm", sendchunks, recvchunks) -> None:
    """Vector all-to-all: per-peer chunks of independent sizes.

    ``sendchunks[i]`` is sent to rank ``i``; ``recvchunks[i]`` receives from
    rank ``i``. Chunks may be None for empty exchanges.
    """
    tag = _enter(comm)
    rank, size = comm.rank, comm.size
    if len(sendchunks) != size or len(recvchunks) != size:
        raise MpiError(f"alltoallv chunk lists must have length {size}")
    empty = np.empty(0, np.uint8)

    def chunk(seq, i):
        return empty if seq[i] is None else np.asarray(seq[i])

    if recvchunks[rank] is not None and sendchunks[rank] is not None:
        np.asarray(recvchunks[rank])[...] = np.asarray(sendchunks[rank])
        _costs.charge(comm.ctx, "copy", chunk(sendchunks, rank).nbytes)
    for i in range(1, size):
        dst = (rank + i) % size
        src = (rank - i) % size
        comm._coll_sendrecv(
            np.ascontiguousarray(chunk(sendchunks, dst)), dst, chunk(recvchunks, src), src, tag
        )


def allgather(comm: "Comm", sendbuf, recvbuf) -> None:
    """Ring allgather (bandwidth-optimal): P-1 neighbor forwarding steps."""
    tag = _enter(comm)
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    rank, size = comm.rank, comm.size
    if recv.shape[0] != size:
        raise MpiError(f"allgather recvbuf must have leading dimension {size}")
    recv[rank] = send
    _costs.charge(comm.ctx, "copy", send.nbytes)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        comm._coll_sendrecv(
            np.ascontiguousarray(recv[send_block]), right, recv[recv_block], left, tag
        )


def gather(comm: "Comm", sendbuf, recvbuf, root: int = 0) -> None:
    """Linear gather to root (fine at simulated scales)."""
    tag = _enter(comm)
    send = np.asarray(sendbuf)
    rank, size = comm.rank, comm.size
    if rank == root:
        recv = np.asarray(recvbuf)
        if recv.shape[0] != size:
            raise MpiError(f"gather recvbuf must have leading dimension {size}")
        reqs = []
        for src in range(size):
            if src == root:
                recv[root] = send
            else:
                reqs.append(comm._coll_irecv(recv[src], src, tag))
        for req in reqs:
            req.wait()
    else:
        comm._coll_send(send, root, tag)


def scatter(comm: "Comm", sendbuf, recvbuf, root: int = 0) -> None:
    """Linear scatter from root."""
    tag = _enter(comm)
    recv = np.asarray(recvbuf)
    rank, size = comm.rank, comm.size
    if rank == root:
        send = np.asarray(sendbuf)
        if send.shape[0] != size:
            raise MpiError(f"scatter sendbuf must have leading dimension {size}")
        reqs = []
        for dst in range(size):
            if dst == root:
                recv[...] = send[root]
            else:
                reqs.append(comm._coll_isend(np.ascontiguousarray(send[dst]), dst, tag))
        for req in reqs:
            req.wait()
    else:
        comm._coll_recv(recv, root, tag)


def reduce_scatter_block(comm: "Comm", sendbuf, recvbuf, op: Op | None = None) -> None:
    """Reduce a (P, ...) buffer then scatter row i to rank i."""
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    if send.shape[0] != comm.size:
        raise MpiError(
            f"reduce_scatter_block sendbuf must have leading dimension {comm.size}"
        )
    full = np.empty_like(send)
    reduce(comm, send, full, op, root=0)
    scatter(comm, full, recv, root=0)
