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
from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.sim import costs as _costs
from repro.sim.sync import Counter
from repro.util.errors import MpiError

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
    rendezvous: "_Rendezvous | None"
    #: Sender's vector-clock snapshot (sanitized runs only): a completed
    #: receive is a happens-before edge from send to receiver.
    clock: tuple | None = None


@dataclass
class _Rendezvous:
    """Sender-side state referenced by an RTS envelope."""

    payload: np.ndarray  # flat byte view of the send buffer (reuse is
    # forbidden until the send request completes, so no snapshot is taken)
    send_request: Request
    src_world: int


def _filters_match(src_filter: int, tag_filter: int, env: _Envelope) -> bool:
    return (src_filter in (ANY_SOURCE, env.src)) and (
        tag_filter in (ANY_TAG, env.tag)
    )


@dataclass(slots=True)
class _PostedRecv:
    src: int  # comm rank or ANY_SOURCE
    tag: int  # or ANY_TAG
    buf: np.ndarray  # flat byte view of the user buffer
    request: Request
    #: World rank of the receiver (recorded at post time — completion may
    #: run under the *sender's* comm object, whose rank is not ours).
    dst_world: int = -1

    def matches(self, env: _Envelope) -> bool:
        return _filters_match(self.src, self.tag, env)


class Matching:
    """Posted-receive and unexpected-message queues for one context."""

    def __init__(self, nranks: int, label: str):
        self.label = label
        self.posted: list[list[_PostedRecv]] = [[] for _ in range(nranks)]
        self.unexpected: list[list[_Envelope]] = [[] for _ in range(nranks)]
        # Bumped on every arrival at each rank; lets probe() block.
        self.arrivals: list[Counter] = [
            Counter(f"{label}.arrivals[{r}]") for r in range(nranks)
        ]


def _complete_recv(
    comm: "Comm",
    posted: _PostedRecv,
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
        if san is not None and env.clock is not None and posted.dst_world >= 0:
            san.merge(posted.dst_world, env.clock)
        status = posted.request.status
        status.source = env.src
        status.tag = env.tag
        status.count = nbytes
        posted.request._complete()

    _costs.charge_in(comm.ctx, "mpi.match", finish, nbytes)


def _start_rendezvous_data(comm: "Comm", posted: _PostedRecv, env: _Envelope) -> None:
    """Target matched an RTS: send CTS back, then move the payload."""
    rv = env.rendezvous
    assert rv is not None
    fabric = comm.ctx.fabric
    dst_world = comm.world_rank(comm.rank)

    def on_cts_at_sender() -> None:
        def on_payload_delivered() -> None:
            # Land the payload before completing the send request: once the
            # sender's wait() returns it may legally scribble on the buffer
            # rv.payload views, so the copy-out cannot be deferred.
            _complete_recv(comm, posted, env, rv.payload, land_now=True)
            rv.send_request._complete()

        fabric.send(
            rv.src_world, dst_world, env.nbytes, on_payload_delivered
        )

    fabric.send(dst_world, rv.src_world, _ENVELOPE_BYTES, on_cts_at_sender)


def deliver(comm: "Comm", dst: int, env: _Envelope, matching: Matching) -> None:
    """Scheduler-context arrival of ``env`` at comm rank ``dst``."""
    for i, posted in enumerate(matching.posted[dst]):
        if posted.matches(env):
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
    spec = ctx.spec
    comm.check_revoked()
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
    req.status.source = comm.rank
    req.status.tag = tag
    req.status.count = nbytes
    src_world = comm.world_rank(comm.rank)
    dst_world = comm.world_rank(dest)

    san = ctx.sanitizer
    if nbytes <= spec.mpi_eager_threshold:
        # Copy into the library's eager buffer, inject, complete locally.
        # The copy is mandatory: an eager send returns with the user buffer
        # immediately reusable.
        data = view.copy() if nbytes else None
        yield _costs.cost(ctx, "mpi.send", nbytes)
        env = _Envelope(comm.rank, tag, nbytes, data, None)
        if san is not None:
            env.clock = san.snapshot(src_world)
        ctx.fabric.send(
            src_world,
            dst_world,
            nbytes + _ENVELOPE_BYTES,
            lambda: deliver(comm, dest, env, matching),
        )
        req._complete()
    else:
        # Rendezvous: ship a view — the user buffer may not be reused until
        # the send request completes, which is when the payload lands, so
        # the only copy is the fill into the posted receive buffer.
        yield _costs.cost(ctx, "mpi.send", nbytes)
        rv = _Rendezvous(payload=view, send_request=req, src_world=src_world)
        env = _Envelope(comm.rank, tag, nbytes, None, rv)
        if san is not None:
            env.clock = san.snapshot(src_world)
        ctx.fabric.send(
            src_world,
            dst_world,
            _ENVELOPE_BYTES,
            lambda: deliver(comm, dest, env, matching),
        )
    return req


def irecv(comm: "Comm", matching: Matching, buf, source: int, tag: int) -> Request:
    """Nonblocking receive into ``buf`` (a writable contiguous numpy array)."""
    return comm.ctx.proc.run_script(irecv_steps(comm, matching, buf, source, tag))


def irecv_steps(comm: "Comm", matching: Matching, buf, source: int, tag: int):
    """:func:`irecv` as a script (see ``Proc.run_script``)."""
    ctx = comm.ctx
    comm.check_revoked()
    view = _NO_BYTES if buf is None else _as_bytes_view(buf)
    if view.nbytes and not view.flags.writeable:
        raise MpiError(
            "receive buffer is read-only: a receive writes into it, pass a writable array"
        )
    req = Request("irecv(src=%s,tag=%s)", ctx.proc, source, tag)
    posted = _PostedRecv(source, tag, view, req, comm.world_rank(comm.rank))
    yield _costs.cost(ctx, "mpi.recv", view.nbytes)
    # Search the unexpected queue in arrival order. As in ULFM, a message
    # that already arrived completes even if its sender has since failed;
    # only a receive that would wait on a dead source is refused. An RTS
    # carries no data: its payload would wait on the sender, so it counts
    # as not yet arrived.
    queue = matching.unexpected[comm.rank]
    for i, env in enumerate(queue):
        if posted.matches(env):
            if env.rendezvous is not None:
                comm.check_alive(env.src)
                del queue[i]
                _start_rendezvous_data(comm, posted, env)
            else:
                del queue[i]
                _complete_recv(comm, posted, env, env.data)
            return req
    if source != ANY_SOURCE:
        comm.check_peer(source)
    matching.posted[comm.rank].append(posted)
    return req


def probe(
    comm: "Comm", matching: Matching, source: int, tag: int, *, blocking: bool
) -> _Envelope | None:
    """Check for a matching unexpected message without receiving it."""
    while True:
        comm.check_revoked()
        for env in matching.unexpected[comm.rank]:
            if _filters_match(source, tag, env):
                return env
        if not blocking:
            return None
        seen = matching.arrivals[comm.rank].count
        matching.arrivals[comm.rank].wait_geq(comm.ctx.proc, seen + 1)
