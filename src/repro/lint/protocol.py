"""The protocol surface, declared once: one row per runtime call the linter knows.

The paper's argument is that CAF 2.0 needs a small, nameable set of runtime
calls (§3). This module is that set as data — one :class:`Row` per
``(receiver kind, method)`` of ``Image``, ``Coarray``, ``EventArray``,
``MpiWorld``/``MpiRank``, ``Comm``, ``Window``, ``Request``,
``GasnetWorld``/``GasnetRank`` and ``TeamExchange`` — and everything in
``repro.lint`` that needs to know what a call *is* looks it up here:

* the syntactic tier's ``op.method in X`` predicates (``COLLECTIVE_METHODS``
  ... ``WINDOW_RMA_METHODS``, derived below in one line each; they are
  name-only because that tier tags receivers separately);
* the stream interpreter's ``protocol_call``, which emits the row's stream
  op from the declared operands and returns what the row says;
* ``--predict`` and ``obs scaling``, which count and price the emitted ops.

A row's stream kind is the op kind the runtime records for the call, one of
:data:`repro.sim.costs.KINDS`, so a prediction compares to a recorded trace
kind for kind. A call the runtime records no op for is ``bookkeeping``: its
kind is a name of its own, never a declared one.

A public method of those classes that has no row is listed in
:data:`NOT_MODELLED`: the linter treats a call to it as an unknown call
(arguments escape, result unknown, no finding). A design guard
(``tests/test_design_guards.py::test_protocol_surface_is_declared_once``)
fails when a runtime method is in neither place, or a row names a method
its class does not have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.costs import KINDS

#: An operand: ``(positional index, keyword name or None[, default])``.
Operand = tuple

#: Static pricing models a kind may name (``--predict``'s seconds preview;
#: formulas in :mod:`repro.lint.stream.estimate`): ``repro.sim.costs.KINDS``
#: says which one prices each kind. ``table`` and the ``TABLE ...`` terms are
#: :data:`repro.sim.costs.TABLE` rows, priced by that module's evaluator; a
#: ``spec.`` term is read off the spec because no TABLE row prices that field
#: the same under every structure flag.
PRICE_MODELS = {
    "table": "the `costs.TABLE` row of the same kind",
    "tree": "TABLE `mpi.coll_overhead` + log2(P) x (latency + nbytes / bandwidth)",
    "put": "`spec.mpi_rma_overhead` (flag-free: TABLE's `mpi.rput` adds "
    "`mpi_sendrecv_rma_extra` under `mpi_rma_over_sendrecv`) + nbytes / bandwidth",
    "get": "`spec.mpi_rma_overhead` (flag-free, as `put`) + 2 x latency + nbytes / bandwidth",
    "notify": "`spec.mpi_rma_overhead` (flag-free, as `put`) + latency",
    "match": "`spec.mpi_match_overhead` (flag-free: TABLE's `mpi.match` adds a "
    "bounce copy under `mpi_eager_threshold`)",
    "flush": "TABLE `mpi.flush_overhead`",
    "flush_all": "TABLE `mpi.flush_all.skip` + `mpi.flush_all.walk`(P) — Fig. 4's O(P) walk",
    "idle": "TABLE `mpi.flush_all.skip` — the walk an idle flush_all skips",
}


@dataclass(frozen=True)
class Row:
    """One runtime call.

    ``classes`` (space-separated) holds the syntactic tier's name classes —
    ``collective put get async sync blocking mpi_blocking rma allocator`` —
    and the stream tier's flags: ``caf_sync`` (completes this image's CAF
    traffic), ``foreign_block`` (blocks inside raw MPI/GASNet, where CAF
    makes no progress: Fig. 2), ``caf_put`` (needs target-side CAF
    progress), ``message`` (one latency-bound message per call: CAF014),
    ``bounded`` (cannot hang), ``scoped`` (emitted at the ``with`` block's
    boundaries, not at the call) and ``bookkeeping`` (the runtime records
    no op of its own for it, so ``--predict`` does not count it;
    ``unlock_all`` and ``fence`` are bookkeeping because their inner flush
    records as ``mpi.flush_all`` or ``mpi.flush_all.idle`` by the epoch's
    traffic).
    """

    recv: str  # receiver kind: the interpreter's HandleVal.kind, or "function"
    method: str
    classes: Any = ""
    emits: str | None = None  # the recorded kind, or a bookkeeping name (None: nothing)
    peer: Operand | str | None = None  # target/source rank; "self" = this image
    buf: Operand | None = None  # payload: nbytes = its size
    nbytes: int | str | None = 0  # without ``buf``: constant, or "result"
    slot: Operand | None = None  # event slot (the op carries (uid, slot))
    count: Operand | None = None  # notifications a wait consumes
    escapes: tuple[str, ...] = ()  # keyword arguments paired by unseen code
    runs: Operand | None = None  # (offset, length) runs: one run emits ONE_RUN[emits]
    warn: str | None = None  # stream warning the call raises
    returns: str = "none"  # none | unknown | self | a named builder

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", frozenset(self.classes.split()))


_TARGET0 = (0, "target")
_BUF0 = (0, None)  # first positional argument, never passed by keyword
_CAF_COLL = "collective sync blocking caf_sync"
_MPI_COLL = "collective sync blocking mpi_blocking foreign_block"
_ICOLL = "collective sync"
_TEAM_COLL = "collective sync blocking"


def _caf_coll(method: str, kind: str, buf: Operand | None = None) -> Row:
    return Row("image", method, _CAF_COLL, f"caf.coll.{kind}", buf=buf)


def _caf_coll_async(kind: str) -> Row:
    return Row(
        "image", f"team_{kind}_async", _TEAM_COLL, f"caf.coll.{kind}",
        buf=_BUF0, escapes=("data_event", "op_event"),
    )


def _rma(
    method: str, classes: str, kind: str, target: int = 1, returns: str = "none",
    runs: Operand | None = None,
) -> Row:
    return Row(
        "window", method, classes + " rma", kind, peer=(target, "target"), buf=_BUF0,
        returns=returns, runs=runs,
    )


#: A transfer over one (offset, length) run is a contiguous one: the runtime
#: records the contiguous kind for it, whichever entry point was called.
ONE_RUN = {"mpi.put_runs": "mpi.rput", "mpi.get_runs": "mpi.rget"}


_ROWS = (
    # -- Image (repro.caf.image) ------------------------------------------
    Row("image", "this_image", returns="rank"),
    Row("image", "num_images", returns="nranks"),
    Row("image", "allocate_coarray", "allocator", returns="coarray"),
    Row("image", "allocate_events", "allocator", returns="event"),
    Row("image", "mpi", "allocator", returns="mpi"),
    Row("image", "team_split", _TEAM_COLL, returns="unknown"),
    Row("image", "cofence", "sync blocking caf_sync bookkeeping", "caf.cofence"),
    Row("image", "finish", "sync caf_sync scoped bookkeeping", "caf.finish", nbytes=None,
        returns="finish"),
    _caf_coll("sync_all", "barrier"),
    _caf_coll("barrier", "barrier"),
    Row("image", "sync_images", "sync blocking caf_sync bookkeeping", "caf.sync_images"),
    _caf_coll("team_broadcast", "broadcast", (0, "buf")),
    _caf_coll("team_reduce", "reduce", (0, "send")),
    _caf_coll("team_allreduce", "allreduce", (0, "send")),
    _caf_coll("team_alltoall", "alltoall", (0, "send")),
    _caf_coll("team_allgather", "allgather", (0, "send")),
    _caf_coll_async("broadcast"),
    _caf_coll_async("reduce"),
    _caf_coll_async("allreduce"),
    _caf_coll_async("alltoall"),
    _caf_coll_async("allgather"),
    Row("image", "spawn", "bookkeeping", "caf.spawn", peer=_TARGET0, nbytes=None,
        warn="spawn", returns="spawned"),
    Row("image", "spawn_future", "bookkeeping", "caf.spawn", peer=_TARGET0, nbytes=None,
        warn="spawn", returns="spawned"),
    Row("image", "serve", "blocking caf_sync bookkeeping", "caf.serve", nbytes=None,
        warn="serve"),
    # Asynchronous ops emit their CAF-MPI lowering (§3.3).
    Row("image", "copy_async", "async caf_put", "mpi.rput", peer=(1, "dest_image"),
        buf=(2, "data")),
    # -- Coarray (repro.caf.coarray) ---------------------------------------
    Row("coarray", "write", "put caf_put message", "caf.coarray_write", peer=_TARGET0,
        buf=(1, "data")),
    Row("coarray", "write_section", "put caf_put message", "caf.coarray_write",
        peer=_TARGET0, buf=(2, "data")),
    Row("coarray", "read", "get caf_put", "caf.coarray_read", peer=_TARGET0,
        nbytes="result", returns="read"),
    Row("coarray", "read_section", "get caf_put", "caf.coarray_read", peer=_TARGET0,
        nbytes="result", returns="read_section"),
    Row("coarray", "write_async", "put async caf_put message", "mpi.rput", peer=_TARGET0,
        buf=(1, "data"), escapes=("predicate",)),
    Row("coarray", "read_async", "get async caf_put", "mpi.rget", peer=_TARGET0,
        buf=(1, "out"), escapes=("predicate",)),
    # -- EventArray (repro.caf.events) -------------------------------------
    Row("event", "notify", "", "caf.event_notify", peer=_TARGET0, slot=(1, "slot", 0)),
    Row("event", "wait", "sync blocking caf_sync", "caf.event_wait", peer="self",
        slot=(0, "slot", 0), count=(1, "count", 1)),
    Row("event", "trywait", "sync bounded bookkeeping", "caf.event_trywait", peer="self",
        slot=(0, "slot", 0), returns="unknown"),
    # -- MpiWorld / MpiRank (repro.mpi.world) ------------------------------
    Row("mpi_world", "get", returns="self"),
    Row("mpi_world", "init", returns="mpi"),
    Row("mpi", "win_allocate", "allocator foreign_block bookkeeping", "mpi.win_allocate",
        returns="window"),
    Row("mpi", "win_allocate_shared", "allocator foreign_block bookkeeping",
        "mpi.win_allocate", returns="window"),
    Row("mpi", "win_create_dynamic", "allocator foreign_block bookkeeping",
        "mpi.win_allocate", returns="window"),
    # -- Comm (repro.mpi.comm) ---------------------------------------------
    Row("comm", "barrier", _MPI_COLL, "mpi.coll.barrier"),
    Row("comm", "bcast", _MPI_COLL, "mpi.coll.bcast", buf=_BUF0),
    Row("comm", "reduce", _MPI_COLL, "mpi.coll.reduce", buf=_BUF0),
    Row("comm", "allreduce", _MPI_COLL, "mpi.coll.allreduce", buf=_BUF0),
    Row("comm", "alltoall", _MPI_COLL, "mpi.coll.alltoall", buf=_BUF0),
    Row("comm", "allgather", _MPI_COLL, "mpi.coll.allgather", buf=_BUF0),
    Row("comm", "ibarrier", _ICOLL, "mpi.coll.barrier", buf=_BUF0, returns="unknown"),
    Row("comm", "ibcast", _ICOLL, "mpi.coll.bcast", buf=_BUF0, returns="unknown"),
    Row("comm", "ireduce", _ICOLL, "mpi.coll.reduce", buf=_BUF0, returns="unknown"),
    Row("comm", "iallreduce", _ICOLL, "mpi.coll.allreduce", buf=_BUF0, returns="unknown"),
    Row("comm", "ialltoall", _ICOLL, "mpi.coll.alltoall", buf=_BUF0, returns="unknown"),
    Row("comm", "iallgather", _ICOLL, "mpi.coll.allgather", buf=_BUF0, returns="unknown"),
    Row("comm", "send", "blocking mpi_blocking foreign_block message", "mpi.send",
        peer=(1, "dest"), buf=_BUF0),
    Row("comm", "recv", "blocking mpi_blocking foreign_block", "mpi.recv",
        peer=(1, "source"), buf=_BUF0, returns="unknown"),
    Row("comm", "sendrecv", "blocking mpi_blocking", returns="sendrecv"),
    Row("comm", "isend", "message", "mpi.send", peer=(1, "dest"), buf=_BUF0,
        returns="unknown"),
    Row("comm", "irecv", "", "mpi.recv", peer=(1, "source"), buf=_BUF0, returns="unknown"),
    Row("comm", "probe", "blocking mpi_blocking foreign_block bookkeeping", "mpi.probe",
        nbytes=None, returns="unknown"),
    # -- Window (repro.mpi.window) -----------------------------------------
    _rma("put", "put message", "mpi.rput"),
    _rma("rput", "put message", "mpi.rput", returns="unknown"),
    _rma("get", "get", "mpi.rget"),
    _rma("rget", "get", "mpi.rget", returns="unknown"),
    _rma("accumulate", "put", "mpi.accumulate"),
    _rma("raccumulate", "put", "mpi.accumulate", returns="unknown"),
    _rma("get_accumulate", "get", "mpi.fetch_op", 2),
    _rma("fetch_and_op", "get", "mpi.fetch_op", 2),
    _rma("compare_and_swap", "get", "mpi.cas", 3),
    _rma("put_runs", "put", "mpi.put_runs", runs=(2, "runs")),
    _rma("get_runs", "get", "mpi.get_runs", returns="unknown", runs=(2, "runs")),
    Row("window", "flush", "sync blocking foreign_block", "mpi.flush", peer=_TARGET0),
    Row("window", "flush_local", "sync foreign_block bookkeeping", "mpi.flush_local",
        peer=_TARGET0),
    Row("window", "flush_all", "sync blocking foreign_block", "mpi.flush_all"),
    Row("window", "flush_local_all", "sync foreign_block bookkeeping", "mpi.flush_local_all"),
    Row("window", "rflush", "sync", "mpi.rflush", peer=_TARGET0, returns="unknown"),
    Row("window", "rflush_all", "sync", "mpi.rflush_all", returns="unknown"),
    Row("window", "lock", "blocking foreign_block bookkeeping", "mpi.lock", peer=_TARGET0),
    Row("window", "unlock", "sync blocking foreign_block", "mpi.flush", peer=_TARGET0),
    Row("window", "lock_all", "blocking bookkeeping", "mpi.lock_all"),
    Row("window", "unlock_all", "sync blocking bookkeeping", "mpi.unlock_all"),
    Row("window", "fence", "sync blocking foreign_block bookkeeping", "mpi.fence"),
    Row("window", "sync", "bookkeeping", "mpi.win_sync"),
    Row("window", "shared_query", returns="window_local"),
    # -- Request and the module function wait_all (repro.mpi.request) ------
    Row("request", "wait", "sync blocking mpi_blocking", returns="unknown"),
    Row("function", "wait_all", "blocking mpi_blocking", returns="unknown"),
    # -- GasnetWorld / GasnetRank (repro.gasnet.core) ----------------------
    Row("gasnet_world", "get", returns="self"),
    Row("gasnet_world", "attach", returns="gasnet"),
    Row("gasnet", "put", "put foreign_block", "gasnet.put", peer=(0, "dest"), buf=(2, "data")),
    Row("gasnet", "get", "get foreign_block", "gasnet.get", peer=(1, "src"),
        buf=(0, "dest_buf")),
    Row("gasnet", "put_nb", "put", returns="unknown"),
    Row("gasnet", "get_nb", "get", returns="unknown"),
    Row("gasnet", "put_runs_nb", "put", returns="unknown"),
    Row("gasnet", "get_runs_nb", "get", returns="unknown"),
    Row("gasnet", "wait_syncnb", "sync blocking foreign_block bookkeeping",
        "gasnet.wait_syncnb"),
    Row("gasnet", "wait_syncnb_all", "sync blocking foreign_block bookkeeping",
        "gasnet.wait_syncnb"),
    Row("gasnet", "block_until", "blocking foreign_block bookkeeping", "gasnet.block_until"),
    # -- TeamExchange (repro.gasnet.collectives) ---------------------------
    Row("team", "barrier", _TEAM_COLL),
    Row("team", "bcast", _TEAM_COLL),
    Row("team", "reduce", _TEAM_COLL),
    Row("team", "allreduce", _TEAM_COLL),
    Row("team", "allgather", _TEAM_COLL),
    Row("team", "alltoall", _TEAM_COLL),
    # -- Cluster (repro.sim.cluster): apps share generated inputs through it
    Row("cluster", "shared", returns="shared"),
)

#: Public methods of the runtime classes the linter deliberately has no row
#: for: a call is an unknown call (arguments escape, result unknown).
NOT_MODELLED = (
    ("image", "failed_images"), ("image", "shrink_team"), ("image", "compute"),
    ("image", "profile"),
    ("event", "count"), ("event", "on_next_post"),
    ("mpi_world", "next_context_id"), ("mpi_world", "next_win_id"),
    ("comm", "check_peer"), ("comm", "check_alive"),
    ("comm", "failed_ranks"), ("comm", "check_revoked"), ("comm", "revoke"),
    ("comm", "shrink"), ("comm", "iprobe"), ("comm", "split"), ("comm", "dup"),
    ("window", "attach"), ("window", "detach"), ("window", "region"), ("window", "free"),
    ("request", "test"),
    ("gasnet", "segment_of"), ("gasnet", "register_handler"),
    ("gasnet", "am_request_short"), ("gasnet", "am_request_medium"),
    ("gasnet", "am_request_long"), ("gasnet", "clone_for"), ("gasnet", "poll"),
    ("team", "set_peer_bases"), ("team", "register_handler"),
)

ROWS: dict[tuple[str, str], Row] = {(r.recv, r.method): r for r in _ROWS}


def _named(cls: str) -> frozenset[str]:
    return frozenset(r.method for r in _ROWS if cls in r.classes)


#: Collectives: every image of the team must call them, in the same order.
COLLECTIVE_METHODS = _named("collective")
#: One-sided writes (data lands in a remote image's memory).
PUT_METHODS = _named("put")
#: Asynchronous ops whose local completion must be observed explicitly.
ASYNC_METHODS = _named("async")
#: Synchronization points in program order: they complete this image's
#: outstanding one-sided traffic or establish a happens-before edge.
SYNC_METHODS = _named("sync")
#: Calls that can block the calling image (AM handlers must never).
BLOCKING_METHODS = _named("blocking")
#: Blocking calls when issued on an MPI handle (the Fig. 2 rule's "enter
#: the other runtime and stop progressing this one" set).
MPI_BLOCKING_METHODS = _named("mpi_blocking")
#: Window RMA verbs (epoch rules).
WINDOW_RMA_METHODS = _named("rma")
#: Module-level functions (``repro.mpi.request.wait_all``): protocol calls
#: with no receiver for the syntactic tier to tag.
FUNCTIONS = frozenset(r.method for r in _ROWS if r.recv == "function")
#: Allocator method -> the handle tag it produces.
ALLOCATORS = {r.method: r.returns for r in _ROWS if "allocator" in r.classes}


def render_table() -> str:
    """The table as markdown (docs/architecture.md embeds it; a test compares)."""
    lines = [
        "| receiver | method | classes | emits | priced | returns |",
        "|---|---|---|---|---|---|",
    ]
    for r in _ROWS:
        emits = f"`{r.emits}`" if r.emits else "—"
        if r.runs is not None:
            emits += f" (one run: `{ONE_RUN[r.emits]}`)"
        lines.append(
            f"| {r.recv} | `{r.method}` | {' '.join(sorted(r.classes)) or '—'} | {emits} | "
            f"{KINDS.get(r.emits, '—')} | {r.returns} |"
        )
    return "\n".join(lines)
