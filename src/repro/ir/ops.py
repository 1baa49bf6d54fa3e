"""The shared op vocabulary: one typed model for static and dynamic op streams.

Two layers live here:

* **Protocol method vocabulary** — the CAF / MPI / GASNet method-name
  classification tables that ``repro.lint``'s static op-stream extraction
  uses to type AST call sites: what is a collective, a put, a get, a sync
  point. Only ``repro.lint`` reads them; the recorder sees the simulator's
  own calls, not method names.

* **Dynamic IR op model** — the op kinds a recorded trace is made of
  (mirroring the instrumented call surface: local compute sleeps,
  scheduled callbacks, fabric transfers, event fire/wait, counter
  add/wait, channel put/get), stored columnar (:mod:`repro.ir.trace`).
  Every op carries a stable id (its global record sequence number ``gseq``
  — live execution order), the chain (execution context) it belongs to,
  and its dependence tokens (event / counter / channel ids, transfer peers).
"""

from __future__ import annotations

from repro.sim.irhook import CK_LIT, COST_FIELDS  # noqa: F401  (re-exported)

# -- protocol method vocabulary (read by repro.lint) -----------------------

#: Collectives: every image of the team must call them, in the same order.
COLLECTIVE_METHODS = frozenset(
    {
        "sync_all",
        "barrier",
        "team_broadcast",
        "team_reduce",
        "team_allreduce",
        "team_alltoall",
        "team_allgather",
        "team_broadcast_async",
        "team_reduce_async",
        "team_allreduce_async",
        "team_alltoall_async",
        "team_allgather_async",
        "team_split",
        # MPI communicator collectives (blocking and nonblocking).
        "bcast",
        "reduce",
        "allreduce",
        "alltoall",
        "allgather",
        "ibarrier",
        "ibcast",
        "ireduce",
        "iallreduce",
        "ialltoall",
        "iallgather",
        # GASNet team collectives.
        "broadcast",
    }
)

#: One-sided writes (data lands in a remote image's memory).
PUT_METHODS = frozenset(
    {
        "write",
        "write_section",
        "write_async",
        "put",
        "rput",
        "put_runs",
        "put_nb",
        "put_runs_nb",
        "accumulate",
        "raccumulate",
    }
)

#: One-sided reads.
GET_METHODS = frozenset(
    {
        "read",
        "read_section",
        "read_async",
        "get",
        "rget",
        "get_runs",
        "get_nb",
        "get_runs_nb",
        "get_accumulate",
        "fetch_and_op",
        "compare_and_swap",
    }
)

#: Asynchronous ops whose local completion must be observed explicitly.
ASYNC_METHODS = frozenset({"write_async", "read_async", "copy_async"})

#: Calls that act as a synchronization point in program order: they either
#: complete this image's outstanding one-sided traffic or establish a
#: happens-before edge (event wait) that the repo's protocols pair with
#: remote completion. Clearing hazards on *any* of these keeps the linter
#: false-positive-free on disciplined code.
SYNC_METHODS = (
    frozenset(
        {
            "sync_all",
            "sync_images",
            "cofence",
            "quiet",
            "wait",
            "trywait",
            "wait_syncnb",
            "wait_syncnb_all",
            "flush",
            "flush_all",
            "flush_local",
            "flush_local_all",
            "rflush",
            "rflush_all",
            "fence",
            "unlock",
            "unlock_all",
            "finish",
        }
    )
    | COLLECTIVE_METHODS
)

#: Calls that can block the calling image (AM handlers must never).
BLOCKING_METHODS = (
    frozenset(
        {
            "sync_all",
            "sync_images",
            "cofence",
            "quiet",
            "wait",
            "waitall",
            "wait_syncnb",
            "wait_syncnb_all",
            "recv",
            "send",
            "sendrecv",
            "probe",
            "serve",
            "block_until",
            "flush",
            "flush_all",
            "lock",
            "lock_all",
            "unlock",
            "unlock_all",
            "fence",
        }
    )
    | (
        COLLECTIVE_METHODS
        - {"ibarrier", "ibcast", "ireduce", "iallreduce", "ialltoall", "iallgather"}
    )
)

#: Blocking calls when issued on an MPI handle (the Fig. 2 rule's "enter
#: the other runtime and stop progressing this one" set).
MPI_BLOCKING_METHODS = frozenset(
    {
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "alltoall",
        "allgather",
        "recv",
        "send",
        "sendrecv",
        "probe",
        "wait",
        "waitall",
    }
)

#: Window RMA verbs (epoch rules).
WINDOW_RMA_METHODS = frozenset(
    {
        "put",
        "rput",
        "get",
        "rget",
        "accumulate",
        "raccumulate",
        "get_accumulate",
        "fetch_and_op",
        "compare_and_swap",
        "put_runs",
        "get_runs",
    }
)

# -- dynamic IR op kinds ---------------------------------------------------

OP_SLEEP = 0  # advance the chain's clock by a (re-priceable) cost
OP_CALL = 1  # schedule a child chain after a (re-priceable) delay
OP_XFER = 2  # fabric transfer; delivery starts the referenced child chain
OP_FIRE = 3  # SimEvent.fire
OP_WAITEV = 4  # SimEvent.wait completion
OP_ADD = 5  # Counter.add
OP_WAITGE = 6  # Counter.wait_geq completion (non-consuming)
# 7 is retired (OP_TAKE, a consuming counter wait nothing issued) and is
# not reused: a trace that carries it fails replay as an unknown op kind.
OP_PUT = 8  # Channel.put (carries the per-channel put sequence number)
OP_CHGET = 9  # Channel receive completion (the put it takes: FIFO)

OP_NAMES = {
    OP_SLEEP: "sleep",
    OP_CALL: "call",
    OP_XFER: "xfer",
    OP_FIRE: "fire",
    OP_WAITEV: "wait_event",
    OP_ADD: "add",
    OP_WAITGE: "wait_geq",
    OP_PUT: "chan_put",
    OP_CHGET: "chan_get",
}

# Chain kinds (execution contexts).
CHAIN_PROC = 0  # a simulated process fiber (rank >= 0 for rank processes)
CHAIN_CB = 1  # a scheduled callback (started by a CALL or XFER op)
# 2 is retired (CHAIN_EXTERNAL, a callback scheduled from outside any
# context: only crash schedules did that, and those are never recorded).
