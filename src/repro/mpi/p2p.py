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

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.sim import costs as _costs
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


def _as_bytes_view(buf) -> np.ndarray:
    """View any contiguous numpy buffer as flat bytes (zero-copy)."""
    arr = np.asarray(buf)
    if arr.size and not arr.flags["C_CONTIGUOUS"]:
        raise MpiError("message buffers must be C-contiguous")
    return arr.reshape(-1).view(np.uint8)


@dataclass(slots=True)
class _Envelope:
    """An arrived (or in-flight) message as seen by the matcher."""

    src: int  # comm rank of the sender
    tag: int
    nbytes: int
    #: Eager payload (byte snapshot); None for an RTS or a zero-byte message.
    data: np.ndarray | None
    #: An RTS's send request; its ``buf`` views the send buffer, which may not
    #: be reused until the request completes, so no snapshot is taken.
    rendezvous: Request | None
    #: Sender's vector-clock snapshot (sanitized runs only): a completed
    #: receive is a happens-before edge from send to receiver.
    clock: tuple | None = None


class Matching:
    """Posted-receive and unexpected-message queues for one context."""

    def __init__(self, nranks: int, label: str):
        #: Posted receives per rank: their requests, in posting order.
        self.posted: list[list[Request]] = [[] for _ in range(nranks)]
        self.unexpected: list[list[_Envelope]] = [[] for _ in range(nranks)]
        # Bumped on every arrival at each rank; lets probe() block.
        self.arrivals: list[Counter] = [
            Counter(f"{label}.arrivals[{r}]") for r in range(nranks)
        ]


def _complete_recv(
    comm: "Comm",
    posted: Request,
    env: _Envelope,
    data: np.ndarray,
    *,
    land_now: bool = False,
) -> None:
    """Fill the posted buffer and complete the request after the match overhead.

    Eager messages pay an unpack copy out of the library's bounce buffer;
    rendezvous payloads land directly in the user buffer (zero-copy), so
    they only pay the match overhead. ``land_now`` copies the payload out
    synchronously (rendezvous: ``data`` is a live view of the sender's
    buffer, which becomes legally reusable the instant the send request
    completes) while still deferring request completion by the overhead.
    """
    if env.nbytes > posted.buf.nbytes:
        raise MpiError(
            f"message truncation: {env.nbytes} bytes arrived for a "
            f"{posted.buf.nbytes}-byte receive (tag {env.tag})"
        )
    nbytes = env.nbytes  # zero: ``data`` is None and nothing lands
    if nbytes and land_now:
        posted.buf[:nbytes] = data[:nbytes]

    def finish() -> None:
        if nbytes and not land_now:
            posted.buf[:nbytes] = data[:nbytes]
        san = comm.ctx.sanitizer
        if san is not None and env.clock is not None:
            san.merge(posted.dst_world, env.clock)
        status = posted.status
        status.source, status.tag, status.count = env.src, env.tag, nbytes
        posted.fire()

    _costs.charge_in(comm.ctx, "mpi.match", finish, nbytes)


def _start_rendezvous_data(comm: "Comm", posted: Request, env: _Envelope) -> None:
    """Target matched an RTS: send CTS back, then move the payload."""
    send = env.rendezvous
    assert send is not None
    fabric = comm.ctx.fabric
    group = comm.state.group
    src_world, dst_world = group[env.src], group[comm.rank]

    def on_cts_at_sender() -> None:
        def on_payload_delivered() -> None:
            # Land the payload before completing the send request: once the
            # sender's wait() returns it may legally scribble on the buffer
            # send.buf views, so the copy-out cannot be deferred.
            _complete_recv(comm, posted, env, send.buf, land_now=True)
            send.fire()

        fabric.send(src_world, dst_world, env.nbytes, on_payload_delivered)

    fabric.send(dst_world, src_world, _ENVELOPE_BYTES, on_cts_at_sender)


def deliver(comm: "Comm", dst: int, env: _Envelope, matching: Matching) -> None:
    """Scheduler-context arrival of ``env`` at comm rank ``dst``."""
    for i, posted in enumerate(matching.posted[dst]):
        if posted._matches(env):
            del matching.posted[dst][i]
            if env.rendezvous is not None:
                _start_rendezvous_data(comm, posted, env)
            else:
                _complete_recv(comm, posted, env, env.data)
            matching.arrivals[dst].add()
            return
    matching.unexpected[dst].append(env)
    matching.arrivals[dst].add()


def isend(comm: "Comm", matching: Matching, buf, dest: int, tag: int) -> Request:
    """Nonblocking send. The payload is snapshotted at call time."""
    return comm.ctx.proc.run_script(isend_steps(comm, matching, buf, dest, tag))


def isend_steps(comm: "Comm", matching: Matching, buf, dest: int, tag: int):
    """:func:`isend` as a script (see ``Proc.run_script``)."""
    ctx = comm.ctx
    group = comm.state.group
    if comm.state.revoked:  # the guards are tested here; ``check_*`` only raise
        comm.check_revoked()
    if not 0 <= dest < comm.size or group[dest] in ctx.cluster.failed_ranks:
        comm.check_peer(dest)
    if tag < 0:
        raise MpiError(
            f"send tag must be >= 0, got {tag}: ANY_TAG is a receive-only wildcard"
        )
    if buf is None:
        view, nbytes = None, 0
    else:
        view = _as_bytes_view(buf)
        nbytes = view.nbytes
    req = Request("isend(dst=%s,tag=%s)", ctx.proc, dest, tag)
    status = req.status
    status.source, status.tag, status.count = comm.rank, tag, nbytes
    src_world, dst_world = group[comm.rank], group[dest]

    # Eager: copy into the library's eager buffer, inject, complete locally.
    # The copy is mandatory: an eager send returns with the user buffer
    # immediately reusable. Rendezvous: inject an RTS that ships a view —
    # the user buffer may not be reused until the send request completes,
    # which is when the payload lands, so the only copy is the fill into the
    # posted receive buffer.
    eager = nbytes <= ctx.spec.mpi_eager_threshold
    data = view.copy() if eager and nbytes else None
    yield _costs.cost(ctx, "mpi.send", nbytes)
    if not eager:
        req.buf = view
    env = _Envelope(comm.rank, tag, nbytes, data, None if eager else req)
    if ctx.sanitizer is not None:
        env.clock = ctx.sanitizer.snapshot(src_world)
    wire = nbytes + _ENVELOPE_BYTES if eager else _ENVELOPE_BYTES
    ctx.fabric.send(src_world, dst_world, wire, partial(deliver, comm, dest, env, matching))
    if eager:
        req.fire()
    return req


def irecv(comm: "Comm", matching: Matching, buf, source: int, tag: int) -> Request:
    """Nonblocking receive into ``buf`` (a writable contiguous numpy array)."""
    return comm.ctx.proc.run_script(irecv_steps(comm, matching, buf, source, tag))


def irecv_steps(comm: "Comm", matching: Matching, buf, source: int, tag: int):
    """:func:`irecv` as a script (see ``Proc.run_script``)."""
    ctx = comm.ctx
    state = comm.state
    if state.revoked:
        comm.check_revoked()
    view = _NO_BYTES if buf is None else _as_bytes_view(buf)
    if view.nbytes and not view.flags.writeable:
        raise MpiError(
            "receive buffer is read-only: a receive writes into it, pass a writable array"
        )
    req = Request("irecv(src=%s,tag=%s)", ctx.proc, source, tag)
    req.src, req.tag, req.buf, req.dst_world = source, tag, view, state.group[comm.rank]
    yield _costs.cost(ctx, "mpi.recv", view.nbytes)
    # Search the unexpected queue in arrival order. As in ULFM, a message
    # that already arrived completes even if its sender has since failed;
    # only a receive that would wait on a dead source is refused. An RTS
    # carries no data: its payload would wait on the sender, so it counts
    # as not yet arrived.
    queue = matching.unexpected[comm.rank]
    for i, env in enumerate(queue):
        if req._matches(env):
            if env.rendezvous is not None:
                comm.check_alive(env.src)
                del queue[i]
                _start_rendezvous_data(comm, req, env)
            else:
                del queue[i]
                _complete_recv(comm, req, env, env.data)
            return req
    failed = ctx.cluster.failed_ranks
    if source != ANY_SOURCE and not (0 <= source < comm.size and state.group[source] not in failed):
        comm.check_peer(source)
    if req.dst_world in failed:
        raise _declared_failed(comm.rank, req)
    matching.posted[comm.rank].append(req)
    return req


def _declared_failed(rank: int, req: Request) -> MpiProcFailedError:
    """``rank``'s receive ``req``: the run declared ``rank`` failed, so nobody sends to it."""
    return MpiProcFailedError(req.dst_world, (
        f"rank {rank} (world rank {req.dst_world}) was declared failed, and a failed rank gets "
        f"no more messages: its receive (src={req.src}, tag={req.tag}) would never complete, "
        "so end this rank's program instead of communicating"
    ))


def probe(
    comm: "Comm", matching: Matching, source: int, tag: int, *, blocking: bool
) -> _Envelope | None:
    """Check for a matching unexpected message without receiving it."""
    while True:
        comm.check_revoked()
        for env in matching.unexpected[comm.rank]:
            if source in (ANY_SOURCE, env.src) and tag in (ANY_TAG, env.tag):
                return env
        if not blocking:
            return None
        seen = matching.arrivals[comm.rank].count
        matching.arrivals[comm.rank].wait_geq(comm.ctx.proc, seen + 1)
