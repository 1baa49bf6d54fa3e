"""Two-sided point-to-point: tag matching, eager and rendezvous protocols.

One :class:`Matching` instance is one MPI *context*: a communicator owns
two (user traffic and collective traffic) so library-internal messages can
never match user wildcards, exactly as real MPI separates them with
context ids.

Protocols
---------
* **Eager** (payload <= ``spec.mpi_eager_threshold``): the sender copies the
  payload into an internal buffer (charged as memcpy time), injects it, and
  the send completes locally at once. On delivery the target either fills a
  posted receive (completing it after the match overhead) or parks the
  message in the unexpected queue.
* **Rendezvous** (larger payloads): the sender injects a ready-to-send
  (RTS) envelope; when the target matches it, a clear-to-send (CTS) flows
  back and the payload moves directly; both requests complete when the
  payload lands.

The simulated MPI library has asynchronous progress for two-sided traffic
(matching runs in scheduler callbacks, like a hardware-assisted or
progress-thread implementation); the *lack* of progress the paper's
Figure 2 warns about lives one level up, in CAF's Active-Message layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.sim import costs as _costs
from repro.sim import irhook as _irhook
from repro.sim.sync import Counter
from repro.util.errors import MpiError, MpiProcFailedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.comm import Comm

_ENVELOPE_BYTES = 48  # modeled on-wire size of a match header / RTS / CTS

#: The receive buffer a ``None`` buffer stands for. A zero-byte message —
#: every round of a barrier — builds no array anywhere: its payload is
#: ``None`` from ``isend`` to the match, and nothing is copied out of it.
_NO_BYTES = np.empty(0, np.uint8)
_NO_BYTES.flags.writeable = False


_BYTE = np.dtype(np.uint8)


def _as_bytes_view(buf) -> np.ndarray:
    """View any contiguous numpy buffer as flat bytes (zero-copy); a flat
    byte view — what a collective builds once for all its rounds — is
    its own."""
    arr = buf if type(buf) is np.ndarray else np.asarray(buf)
    if arr.size and not arr.flags["C_CONTIGUOUS"]:
        raise MpiError("message buffers must be C-contiguous")
    if arr.dtype is _BYTE and arr.ndim == 1:
        return arr
    return arr.reshape(-1).view(np.uint8)


def _status(req: Request) -> Status:
    """A two-sided request's MPI_Status, built when read: its message's
    source (comm rank), tag and byte count once complete; empty before,
    or when it completed in error."""
    if not req.is_set or req.error is not None:
        return Status()
    return Status(req.src, req.tag, req.nbytes)


class _SendRequest(Request):
    """A message is its send request: in flight and in the target's
    unexpected queue, it is the envelope the matcher reads.

    ``src`` is the sender's comm rank, ``tag`` and ``nbytes`` the
    message's; ``data`` is the eager payload's snapshot (None for a
    zero-byte or rendezvous message). A rendezvous send's ``buf`` views the
    send buffer, which may not be reused until the request completes, so no
    snapshot is taken; an eager send's is None. ``clock`` is the sender's
    vector-clock snapshot (sanitized runs only): a completed receive is a
    happens-before edge from send to receiver. ``_comm``, ``_matching`` and
    ``_dst`` route the arrival (:meth:`_deliver`).
    """

    __slots__ = ("src", "tag", "nbytes", "data", "buf", "clock", "_comm", "_matching", "_dst")

    status = property(_status)

    def __init__(self, comm: "Comm", matching: Matching, dest: int, tag: int):
        self._kind = "isend(dst=%s,tag=%s)"
        self._kind_args = (dest, tag)
        self._proc = comm.ctx.proc
        self.is_set = False
        self.value = self.error = self.clock = None
        self._waiters = self._callbacks = ()
        self.src, self.tag, self._dst = comm.rank, tag, dest
        self._comm, self._matching = comm, matching

    def _deliver(self) -> None:
        """Scheduler-context arrival at comm rank ``_dst``: the first
        matching posted receive takes it, else it waits as unexpected."""
        matching, dst = self._matching, self._dst
        posted = matching.posted[dst]
        if posted:
            src, tag = self.src, self.tag
            for i, recv in enumerate(posted):
                if (recv.src == src or recv.src == ANY_SOURCE) and (
                    recv.tag == tag or recv.tag == ANY_TAG
                ):
                    del posted[i]
                    if self.buf is not None:
                        _start_rendezvous_data(self._comm, recv, self)
                    else:
                        recv._match(self._comm.ctx, self)
                    matching.arrivals[dst].add()
                    return
        matching.unexpected[dst].append(self)
        matching.arrivals[dst].add()


class _RecvRequest(Request):
    """A posted receive is its request: the match filter ``src`` / ``tag``
    (once complete, the source and tag it took, with ``nbytes``: its
    status), the receive view ``buf`` and ``dst_world``, its world rank
    (completion may run under the sender's comm object, whose rank is not
    ours). ``_matched`` is the send it took, until the payload lands."""

    __slots__ = ("src", "tag", "nbytes", "buf", "dst_world", "_matched")

    status = property(_status)

    def __init__(self, comm: "Comm", view: np.ndarray, source: int, tag: int):
        self._kind = "irecv(src=%s,tag=%s)"
        self._kind_args = (source, tag)
        self._proc = comm.ctx.proc
        self.is_set = False
        self.value = self.error = None
        self._waiters = self._callbacks = ()
        self.src, self.tag, self.buf = source, tag, view
        self.dst_world = comm.state.group[comm.rank]

    def _match(self, ctx, send: _SendRequest) -> None:
        """Take ``send`` and complete after the match overhead.

        An eager payload pays an unpack copy out of the library's bounce
        buffer when the receive completes (:meth:`_land`). A rendezvous
        payload lands in the user buffer (zero-copy) now, at delivery:
        ``send.buf`` is a live view of the sender's buffer, which becomes
        legally reusable the instant the send request completes.
        Completion is deferred by the overhead either way.
        """
        nbytes = send.nbytes  # zero: nothing lands
        if nbytes > self.buf.nbytes:
            raise MpiError(
                f"message truncation: {nbytes} bytes arrived for a "
                f"{self.buf.nbytes}-byte receive (tag {send.tag})"
            )
        if nbytes and send.buf is not None:
            self.buf[:nbytes] = send.buf[:nbytes]
        self._matched = send
        _costs.charge_in(ctx, "mpi.match", self._land, nbytes)

    def _land(self) -> None:
        """The match overhead is over: copy an eager payload out, then
        complete with the message's status."""
        send, self._matched = self._matched, None
        nbytes = send.nbytes
        if nbytes and send.buf is None:
            self.buf[:nbytes] = send.data[:nbytes]
        if send.clock is not None:
            self._proc.engine.sanitizer.merge(self.dst_world, send.clock)
        self.src, self.tag, self.nbytes = send.src, send.tag, nbytes
        self.fire()


class Matching:
    """Posted-receive and unexpected-message queues for one context."""

    def __init__(self, nranks: int, label: str):
        #: Posted receives per rank: their requests, in posting order.
        self.posted: list[list[_RecvRequest]] = [[] for _ in range(nranks)]
        #: Arrived, unmatched messages per rank: their send requests.
        self.unexpected: list[list[_SendRequest]] = [[] for _ in range(nranks)]
        # Bumped on every arrival at each rank; lets probe() block.
        self.arrivals: list[Counter] = [
            Counter(f"{label}.arrivals[{r}]") for r in range(nranks)
        ]


def _start_rendezvous_data(comm: "Comm", posted: _RecvRequest, send: _SendRequest) -> None:
    """Target matched an RTS: send CTS back, then move the payload."""
    fabric = comm.ctx.fabric
    group = comm.state.group
    src_world, dst_world = group[send.src], group[comm.rank]

    def on_cts_at_sender() -> None:
        def on_payload_delivered() -> None:
            # Land the payload before completing the send request: once the
            # sender's wait() returns it may legally scribble on the buffer
            # send.buf views, so the copy-out cannot be deferred.
            posted._match(comm.ctx, send)
            send.fire()

        fabric.send(src_world, dst_world, send.nbytes, on_payload_delivered)

    fabric.send(dst_world, src_world, _ENVELOPE_BYTES, on_cts_at_sender)


# -- the two bodies --------------------------------------------------------
#
# An isend and an irecv are each a request built before their one cost and
# a step after it. ``isend_steps`` / ``irecv_steps``, the blocking
# ``send_steps`` / ``recv_steps`` and ``sendrecv_steps`` (every collective
# round's message) yield the cost between the two, each as one generator.


def _send_request(comm: "Comm", matching: Matching, buf, dest: int, tag: int) -> _SendRequest:
    """An isend up to its cost: the checks, and its message (an eager
    payload is snapshotted here)."""
    ctx = comm.ctx
    if comm.state.revoked:  # the guards are tested here; ``check_*`` only raise
        comm.check_revoked()
    if not 0 <= dest < comm.size or comm.state.group[dest] in ctx.cluster.failed_ranks:
        comm.check_peer(dest)
    if tag < 0:
        raise MpiError(
            f"send tag must be >= 0, got {tag}: ANY_TAG is a receive-only wildcard"
        )
    req = _SendRequest(comm, matching, dest, tag)
    if buf is None:
        req.nbytes, req.data, req.buf = 0, None, None
        return req
    view = _as_bytes_view(buf)
    req.nbytes = nbytes = view.nbytes
    # Eager: copy into the library's eager buffer, inject, complete locally.
    # The copy is mandatory: an eager send returns with the user buffer
    # immediately reusable. Rendezvous: inject an RTS that ships a view —
    # the user buffer may not be reused until the send request completes,
    # which is when the payload lands, so the only copy is the fill into the
    # posted receive buffer.
    if nbytes <= ctx.spec.mpi_eager_threshold:
        req.data, req.buf = (view.copy() if nbytes else None), None
    else:
        req.data, req.buf = None, view
    return req


def _inject(send: _SendRequest) -> None:
    """An isend after its cost: onto the wire; an eager send completes."""
    comm = send._comm
    ctx = comm.ctx
    group = comm.state.group
    src_world, dst_world = group[send.src], group[send._dst]
    if ctx.sanitizer is not None:
        send.clock = ctx.sanitizer.snapshot(src_world)
    if send.buf is None:
        ctx.fabric.send(src_world, dst_world, send.nbytes + _ENVELOPE_BYTES, send._deliver)
        send.fire()
    else:
        ctx.fabric.send(src_world, dst_world, _ENVELOPE_BYTES, send._deliver)


def _recv_request(comm: "Comm", buf, source: int, tag: int) -> _RecvRequest:
    """An irecv up to its cost: the checks, and its request."""
    state = comm.state
    if state.revoked:
        comm.check_revoked()
    view = _NO_BYTES if buf is None else _as_bytes_view(buf)
    if view.nbytes and not view.flags.writeable:
        raise MpiError(
            "receive buffer is read-only: a receive writes into it, pass a writable array"
        )
    return _RecvRequest(comm, view, source, tag)


def _post(comm: "Comm", matching: Matching, req: _RecvRequest) -> None:
    """An irecv after its cost: take the first matching arrival, or post.

    The unexpected queue is searched in arrival order. As in ULFM, a
    message that already arrived completes even if its sender has since
    failed; only a receive that would wait on a dead source is refused. An
    RTS carries no data: its payload would wait on the sender, so it counts
    as not yet arrived.
    """
    ctx = comm.ctx
    queue = matching.unexpected[comm.rank]
    source, tag = req.src, req.tag
    if queue:
        for i, send in enumerate(queue):
            if (source == send.src or source == ANY_SOURCE) and (
                tag == send.tag or tag == ANY_TAG
            ):
                if send.buf is not None:
                    comm.check_alive(send.src)
                    del queue[i]
                    _start_rendezvous_data(comm, req, send)
                else:
                    del queue[i]
                    req._match(ctx, send)
                return
    failed = ctx.cluster.failed_ranks
    if source != ANY_SOURCE and not (
        0 <= source < comm.size and comm.state.group[source] not in failed
    ):
        comm.check_peer(source)
    if req.dst_world in failed:
        raise _declared_failed(comm.rank, req)
    matching.posted[comm.rank].append(req)


def isend(comm: "Comm", matching: Matching, buf, dest: int, tag: int) -> Request:
    """Nonblocking send. The payload is snapshotted at call time."""
    return comm.ctx.proc.run_script(isend_steps(comm, matching, buf, dest, tag))


def isend_steps(comm: "Comm", matching: Matching, buf, dest: int, tag: int):
    """:func:`isend` as a script (see ``Proc.run_script``)."""
    req = _send_request(comm, matching, buf, dest, tag)
    yield _costs.cost(comm.ctx, "mpi.send", req.nbytes)
    _inject(req)
    return req


def irecv(comm: "Comm", matching: Matching, buf, source: int, tag: int) -> Request:
    """Nonblocking receive into ``buf`` (a writable contiguous numpy array)."""
    return comm.ctx.proc.run_script(irecv_steps(comm, matching, buf, source, tag))


def irecv_steps(comm: "Comm", matching: Matching, buf, source: int, tag: int):
    """:func:`irecv` as a script (see ``Proc.run_script``)."""
    req = _recv_request(comm, buf, source, tag)
    yield _costs.cost(comm.ctx, "mpi.recv", req.buf.nbytes)
    _post(comm, matching, req)
    return req


def send_steps(comm: "Comm", matching: Matching, buf, dest: int, tag: int):
    """A blocking send on ``matching`` (any of the comm's contexts), as a
    script."""
    req = _send_request(comm, matching, buf, dest, tag)
    yield _costs.cost(comm.ctx, "mpi.send", req.nbytes)
    _inject(req)
    yield req
    req._outcome()


def recv_steps(comm: "Comm", matching: Matching, buf, source: int, tag: int):
    """A blocking receive on ``matching``, as a script; returns its request
    (``.status`` builds the status, for a caller that reads one)."""
    req = _recv_request(comm, buf, source, tag)
    yield _costs.cost(comm.ctx, "mpi.recv", req.buf.nbytes)
    _post(comm, matching, req)
    yield req
    req._outcome()
    return req


def sendrecv_steps(
    comm: "Comm", matching: Matching, sendbuf, dest: int, sendtag: int,
    recvbuf, source: int, recvtag: int,
):
    """One exchange — the message of every collective round — as irecv +
    isend + both waits, in one generator; returns the receive request."""
    ctx = comm.ctx
    rreq = _recv_request(comm, recvbuf, source, recvtag)
    yield _costs.cost(ctx, "mpi.recv", rreq.buf.nbytes)
    _post(comm, matching, rreq)
    sreq = _send_request(comm, matching, sendbuf, dest, sendtag)
    yield _costs.cost(ctx, "mpi.send", sreq.nbytes)
    _inject(sreq)
    if not sreq.is_set or sreq.error is not None or _irhook.RECORDER is not None:
        yield sreq  # a done eager send has nothing to wait or record
        sreq._outcome()
    yield rreq
    rreq._outcome()
    return rreq


def _declared_failed(rank: int, req: _RecvRequest) -> MpiProcFailedError:
    """``rank``'s receive ``req``: the run declared ``rank`` failed, so nobody sends to it."""
    return MpiProcFailedError(req.dst_world, (
        f"rank {rank} (world rank {req.dst_world}) was declared failed, and a failed rank gets "
        f"no more messages: its receive (src={req.src}, tag={req.tag}) would never complete, "
        "so end this rank's program instead of communicating"
    ))


def probe(
    comm: "Comm", matching: Matching, source: int, tag: int, *, blocking: bool
) -> _SendRequest | None:
    """Check for a matching unexpected message without receiving it: the
    message's send request, or None."""
    while True:
        comm.check_revoked()
        for send in matching.unexpected[comm.rank]:
            if source in (ANY_SOURCE, send.src) and tag in (ANY_TAG, send.tag):
                return send
        if not blocking:
            return None
        seen = matching.arrivals[comm.rank].count
        matching.arrivals[comm.rank].wait_geq(comm.ctx.proc, seen + 1)
