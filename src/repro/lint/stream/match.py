"""Cross-rank matching over compiled per-rank op streams.

Three deadlock analyses on one entry point's :class:`EntryStreams`
(compiled at a concrete probe image count, default P=4):

* **Dual-runtime (Fig. 2)** — a rank holds a pending CAF put (needs
  target-side AM progress to complete) and then blocks inside a raw
  MPI/GASNet call before any CAF synchronization point.  Because the
  streams are compiled interprocedurally and loops are unrolled, this
  catches the put-in-helper / barrier-in-caller and loop-carried
  variants the per-function syntactic CAF006 scan cannot see.
* **Event starvation** — for each (event array, slot), notifies
  *delivered to* each rank are counted against waits *consumed at* that
  rank; more consumption than delivery hangs.  Only the hang direction
  is reported: extra notifies are drained at teardown and are
  legitimate.
* **Recv starvation** — raw-MPI two-sided accounting: posted blocking
  recvs from a concrete source against sends toward the receiver.

Accounting soundness: event/recv counting is skipped whenever any rank
stream is truncated, aborted, or carries unresolved-control-flow
warnings (the Fig. 2 scan is prefix-sound and always runs).  Events that
escape into unresolvable calls, carry unknown slots/targets, or have
tentative ops are skipped individually.  Timed waits and ``trywait``
cannot hang and never count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .interp import EntryStreams, StreamOp


@dataclass
class MatchProblem:
    """One cross-rank protocol problem found by the symbolic matcher."""

    kind: str  # "dual-runtime" | "event-starvation" | "recv-starvation"
    line: int
    col: int
    func: str
    message: str
    related: list[tuple[int, str]] = field(default_factory=list)


def analyze_entry(entry: EntryStreams) -> list[MatchProblem]:
    problems = list(_fig2_scan(entry))
    if all(rs.sound_for_accounting for rs in entry.ranks):
        problems.extend(_event_accounting(entry))
        problems.extend(_recv_accounting(entry))
    return problems


# -- Fig. 2: pending CAF put + blocking into a foreign runtime ------------


def _fig2_scan(entry: EntryStreams):
    seen: set[tuple[int, int]] = set()
    for rs in entry.ranks:
        pending: list[StreamOp] = []
        for op in rs.ops:
            if op.is_sync:
                # A CAF synchronization point completes outstanding CAF
                # traffic (conservatively also under unresolved guards —
                # a maybe-sync must silence, not fire, the rule).
                pending.clear()
                continue
            if op.is_caf_put and not op.tentative:
                pending.append(op)
                continue
            if op.is_mpi_block and pending and not op.tentative:
                put = pending[0]
                key = (put.line, op.line)
                if key in seen:
                    pending.clear()
                    continue
                seen.add(key)
                if _peer_also_blocks(entry, put, op):
                    yield MatchProblem(
                        kind="dual-runtime",
                        line=op.line,
                        col=op.col,
                        func=op.func,
                        message=(
                            f"rank {rs.rank} blocks in {op.kind} while its CAF "
                            f"{put.method} from line {put.line} is still pending — "
                            "the target can only complete it from inside the CAF "
                            "progress engine (paper Fig. 2); synchronize the CAF "
                            "traffic (sync_all / event wait / cofence) before "
                            "entering the foreign runtime"
                        ),
                        related=[(put.line, f"pending {put.method} issued here")],
                    )
                pending.clear()


def _peer_also_blocks(entry: EntryStreams, put: StreamOp, block: StreamOp) -> bool:
    """The hang needs the put's target to sit in the same foreign-runtime
    call instead of progressing AMs.  SPMD streams make this checkable:
    the target rank's stream must reach the same blocking call site."""
    if put.peer is None:
        return True  # unknown target: keep the conservative report
    if not (0 <= put.peer < entry.nranks):
        return False
    target = entry.ranks[put.peer]
    return any(
        o.is_mpi_block and o.line == block.line and not o.tentative
        for o in target.ops
    )


# -- event delivery/consumption accounting --------------------------------


def _event_accounting(entry: EntryStreams):
    # (uid, slot) -> per-rank delivered / consumed totals.
    delivered: dict[tuple[int, int], dict[int, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    consumed: dict[tuple[int, int], dict[int, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    first_wait: dict[tuple[int, int, int], StreamOp] = {}
    skip: set[int] = set()  # event uids with unknowns anywhere
    for rs in entry.ranks:
        for w in rs.warnings:
            if w.startswith("escape:event#"):
                try:
                    skip.add(int(w.split("#", 1)[1]))
                except ValueError:
                    pass
        for op in rs.ops:
            if op.event is None:
                continue
            uid, slot = op.event
            if op.tentative or slot < 0:
                skip.add(uid)
                continue
            if op.kind == "caf.event_notify":
                if op.peer is None or not (0 <= op.peer < entry.nranks):
                    skip.add(uid)
                    continue
                delivered[(uid, slot)][op.peer] += 1
            elif op.kind == "caf.event_wait" and not op.bounded:
                consumed[(uid, slot)][rs.rank] += op.count
                first_wait.setdefault((uid, slot, rs.rank), op)

    for (uid, slot), per_rank in sorted(consumed.items()):
        if uid in skip:
            continue
        total_notifies = sum(
            sum(ranks.values())
            for (u, _s), ranks in delivered.items()
            if u == uid
        )
        if total_notifies == 0:
            continue  # never-notified events are syntactic CAF005 territory
        starving = [
            (rank, used, delivered[(uid, slot)].get(rank, 0))
            for rank, used in sorted(per_rank.items())
            if used > delivered[(uid, slot)].get(rank, 0)
        ]
        if not starving:
            continue
        # SPMD streams usually starve symmetrically; one report per slot.
        rank, used, have = starving[0]
        op = first_wait[(uid, slot, rank)]
        others = (
            f" ({len(starving)} of {entry.nranks} ranks starve this way)"
            if len(starving) > 1
            else ""
        )
        yield MatchProblem(
            kind="event-starvation",
            line=op.line,
            col=op.col,
            func=op.func,
            message=(
                f"rank {rank} waits for {used} notif"
                f"{'y' if used == 1 else 'ies'} on event slot {slot} "
                f"but only {have} "
                f"{'is' if have == 1 else 'are'} ever delivered to it "
                f"across all {entry.nranks} compiled rank streams — "
                f"this wait hangs (loop-carried or misrouted notify){others}"
            ),
        )


# -- raw-MPI two-sided accounting -----------------------------------------


def _recv_accounting(entry: EntryStreams):
    has_nonblocking_recv = any(
        op.method == "irecv" for rs in entry.ranks for op in rs.ops
    )
    if has_nonblocking_recv:
        return  # request-completion pairing is out of scope
    sends: dict[int, int] = defaultdict(int)  # dest rank -> messages toward it
    recvs: dict[tuple[int, int], tuple[int, StreamOp]] = {}
    unknown_peer = False
    for rs in entry.ranks:
        for op in rs.ops:
            if op.tentative:
                if op.kind in ("mpi.send", "mpi.recv"):
                    return  # guarded p2p: counting would be unsound
                continue
            if op.kind == "mpi.send":
                if op.peer is None:
                    unknown_peer = True
                    continue
                sends[op.peer] += 1
            elif op.kind == "mpi.recv":
                if op.peer is None:
                    continue  # ANY_SOURCE: can match anything
                count, first = recvs.get((rs.rank, op.peer), (0, op))
                recvs[(rs.rank, op.peer)] = (count + 1, first)
    if unknown_peer:
        return
    by_receiver: dict[int, int] = defaultdict(int)
    for (receiver, _source), (count, _op) in recvs.items():
        by_receiver[receiver] += count
    for (receiver, source), (count, op) in sorted(recvs.items()):
        if by_receiver[receiver] > sends.get(receiver, 0) and count > 0:
            total = sends.get(receiver, 0)
            yield MatchProblem(
                kind="recv-starvation",
                line=op.line,
                col=op.col,
                func=op.func,
                message=(
                    f"rank {receiver} posts {by_receiver[receiver]} blocking "
                    f"recv{'s' if by_receiver[receiver] != 1 else ''} but only "
                    f"{total} message{'s are' if total != 1 else ' is'} ever "
                    "sent toward it across all compiled rank streams — the "
                    "excess recv hangs"
                ),
            )
            break  # one report per entry is enough
