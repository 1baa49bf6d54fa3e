"""The sanitizer core: vector clocks, the happens-before graph, checks.

One :class:`Sanitizer` instance is attached to a :class:`~repro.sim.cluster.Cluster`
built with ``sanitize=True``. The engine ticks a rank's clock component at
every scheduling point; runtime layers report synchronization completions
(p2p receive matches, AM handler runs, collective exits, event waits)
which *merge* the sender's snapshot into the receiver — those merges are
the only happens-before edges, so raw fabric deliveries never hide races.
Remote and local accesses to tracked regions become shadow records that
the classifier in :mod:`repro.sanitizer.shadow` checks for conflicts.

None of the hooks sleeps or schedules events: a sanitized run's virtual
timeline is identical to the unsanitized run.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sanitizer.report import (
    Diagnostic,
    SanitizerReport,
    call_site,
)
from repro.sanitizer.shadow import (
    AccessRecord,
    RegionState,
    classify,
    ranges_intersect,
)


class Sanitizer:
    """Per-run checker state. Region keys are ``("win", win_id, owner)``
    for MPI window exposures and ``("seg", owner)`` for GASNet segments;
    ranks in clocks, records and diagnostics are always *world* ranks."""

    def __init__(self, nranks: int, engine) -> None:
        self.nranks = nranks
        self.engine = engine
        self.clocks = [[0] * nranks for _ in range(nranks)]
        self.regions: dict[tuple, RegionState] = {}
        #: Unreleased remote window records by ``(win_id, origin)``: each
        #: ``id(record) -> (target, record)``, what a flush releases.
        self._in_flight: dict[tuple[int, int], dict[int, tuple[int, AccessRecord]]] = {}
        #: ``id(record) -> (win_id, origin)`` for every record indexed above.
        self._flight_key: dict[int, tuple[int, int]] = {}
        self.report = SanitizerReport(nranks)
        #: Windows currently inside a fence epoch (fence() adds before its
        #: closing flush_all) — puts there are epoch-legal.
        self.fence_windows: set[int] = set()
        #: Windows whose traffic is runtime-internal by design (the
        #: atomics-based event storage) — access checks are skipped.
        self._exempt_windows: set[int] = set()
        self._exempt_procs: dict = {}
        # event bookkeeping: key = (event_id, owner_world, slot)
        self._pending_events: dict[tuple, list[tuple]] = {}
        self._event_sent: dict[tuple, int] = {}
        self._event_consumed: dict[tuple, int] = {}
        self.stats = {
            "ticks": 0,
            "merges": 0,
            "records": 0,
            "transfers": 0,
            "released": 0,
        }
        self.finalized = False

    # -- vector clocks -----------------------------------------------------

    def tick(self, rank: int) -> None:
        self.clocks[rank][rank] += 1
        self.stats["ticks"] += 1

    def snapshot(self, rank: int) -> tuple:
        return tuple(self.clocks[rank])

    def merge(self, rank: int, clock) -> None:
        """A synchronization edge: ``clock`` happened-before rank's future."""
        if clock is None:
            return
        mine = self.clocks[rank]
        for i, v in enumerate(clock):
            if v > mine[i]:
                mine[i] = v
        self.stats["merges"] += 1

    def min_clock(self) -> tuple:
        return tuple(min(c[i] for c in self.clocks) for i in range(self.nranks))

    def on_collective(self, rank: int, members) -> None:
        """Collective exit: every member's clock happened-before ``rank``.

        Conservative (members may have advanced past the collective by the
        time this rank exits), which can only suppress reports, never
        fabricate one.
        """
        for m in members:
            if m != rank:
                self.merge(rank, self.snapshot(m))

    # -- exemptions --------------------------------------------------------

    @contextmanager
    def exempt(self):
        """Suppress access recording for the current proc (clock merges
        stay live). Used around runtime-internal protocols — e.g. the
        GASNet hand-rolled collectives, whose flag-spinning is ordered by
        the collective's own semantics, not per-put synchronization."""
        proc = self.engine._current
        self._exempt_procs[proc] = self._exempt_procs.get(proc, 0) + 1
        try:
            yield
        finally:
            self._exempt_procs[proc] -= 1
            if not self._exempt_procs[proc]:
                del self._exempt_procs[proc]

    def is_exempt(self) -> bool:
        return self.engine._current in self._exempt_procs

    def exempt_window(self, win_id: int) -> None:
        self._exempt_windows.add(win_id)

    def is_exempt_window(self, win_id: int) -> bool:
        return win_id in self._exempt_windows

    # -- access recording --------------------------------------------------

    def _site(self) -> str:
        """The application line behind the op being recorded. Inside a
        script (``Proc.run_script``) the code may be running on another
        rank's fiber, so the walk starts at the frame that made the call."""
        proc = self.engine._current
        return call_site(proc._script_caller if proc is not None else None)

    def record_remote(
        self,
        origin: int,
        region: tuple,
        ranges,
        op: str,
        *,
        is_write: bool,
        atomic: bool = False,
    ) -> AccessRecord | None:
        """Record an RMA/AM-mediated access; returns the record so the
        caller can release it at the op's synchronization point, or None
        when recording is suppressed (exempt proc / exempt window)."""
        if self.is_exempt():
            return None
        if region[0] == "win" and region[1] in self._exempt_windows:
            return None
        rec = AccessRecord(
            origin=origin,
            is_write=is_write,
            atomic=atomic,
            remote=True,
            op=op,
            ranges=tuple(ranges),
            init_clock=self.snapshot(origin),
            site=self._site(),
            time=self.engine.now,
        )
        self._check_and_add(region, rec)
        if region[0] == "win":
            key = (region[1], origin)
            self._in_flight.setdefault(key, {})[id(rec)] = (region[2], rec)
            self._flight_key[id(rec)] = key
        return rec

    def record_local(
        self, rank: int, region: tuple, ranges, op: str, *, is_write: bool = True
    ) -> None:
        """Record a direct local load/store (``win.local`` / ``A.local``).

        Released instantly: program order covers it on its own rank, and
        the record exists to clash with unordered *remote* traffic."""
        if self.is_exempt():
            return
        if region[0] == "win" and region[1] in self._exempt_windows:
            return
        clock = self.snapshot(rank)
        rec = AccessRecord(
            origin=rank,
            is_write=is_write,
            atomic=False,
            remote=False,
            op=op,
            ranges=tuple(ranges),
            init_clock=clock,
            site=self._site(),
            time=self.engine.now,
            released=True,
            release_clock=clock,
        )
        self._check_and_add(region, rec)

    def _check_and_add(self, region: tuple, rec: AccessRecord) -> None:
        state = self.regions.get(region)
        if state is None:
            state = self.regions[region] = RegionState()
        for old in state.records:
            hit = ranges_intersect(old.ranges, rec.ranges)
            if not hit:
                continue
            kind = classify(old, rec)
            if kind is not None:
                self._conflict(kind, region, old, rec, hit)
        state.add(rec)
        self.stats["records"] += 1
        if state.should_gc():
            state.gc(self.min_clock())

    def _conflict(self, kind, region, old, new, hit) -> None:
        messages = {
            "race": (
                f"{new.op} by rank {new.origin} conflicts with {old.op} by "
                f"rank {old.origin} with no happens-before ordering"
            ),
            "overlap": (
                f"overlapping in-flight puts: {new.op} by rank {new.origin} "
                f"overlaps an incomplete {old.op} by rank {old.origin}"
            ),
            "unflushed-read": (
                f"{new.op} by rank {new.origin} reads the target of an "
                f"unflushed {old.op} by rank {old.origin}"
            ),
        }
        self.report.add(
            Diagnostic(
                kind=kind,
                message=messages[kind],
                rank=new.origin,
                time=self.engine.now,
                region=region,
                ranges=hit,
                site=new.site,
                other_site=old.site,
                other_rank=old.origin,
            )
        )

    # -- releases ----------------------------------------------------------

    def release_records(self, records) -> None:
        """The synchronization point for these records: flush returned,
        request completed, or wait_syncnb observed the handle."""
        for rec in records:
            if rec is not None and not rec.released:
                rec.released = True
                rec.release_clock = self.snapshot(rec.origin)
                self.stats["released"] += 1
                key = self._flight_key.pop(id(rec), None)
                if key is not None:
                    del self._in_flight[key][id(rec)]

    def release_window(self, win_id: int, origin: int, target: int | None = None) -> None:
        """flush(target) / flush_all / unlock: release this origin's
        in-flight records on the window (one target or all)."""
        self.release_records(self.open_window_records(win_id, origin, target))

    def open_window_records(self, win_id: int, origin: int, target: int | None = None):
        """This origin's in-flight records on a window, at one target or all
        (for rflush, whose release point is the returned request's
        completion)."""
        entries = self._in_flight.get((win_id, origin))
        if not entries:
            return []
        return [
            rec for tgt, rec in entries.values() if target is None or tgt == target
        ]

    # -- epoch / memory-model checks ---------------------------------------

    def epoch_violation(self, rank: int, op: str, win_id: int, target: int) -> None:
        if self.is_exempt() or win_id in self._exempt_windows:
            return
        self.report.add(
            Diagnostic(
                kind="epoch",
                message=(
                    f"{op} targeting rank {target} outside any passive-target "
                    f"epoch (no lock/lock_all/fence on the window)"
                ),
                rank=rank,
                time=self.engine.now,
                region=("win", win_id, target),
                site=self._site(),
            )
        )

    def win_sync_violation(self, rank: int, win_id: int, ranges) -> None:
        if self.is_exempt() or win_id in self._exempt_windows:
            return
        self.report.add(
            Diagnostic(
                kind="win-sync",
                message=(
                    "separate memory model: local access to window memory "
                    "holding unsynchronized RMA updates (missing WIN_SYNC)"
                ),
                rank=rank,
                time=self.engine.now,
                region=("win", win_id, rank),
                ranges=tuple(ranges),
                site=self._site(),
            )
        )

    # -- events ------------------------------------------------------------

    def event_notified(self, rank: int, key: tuple) -> None:
        """A notify is about to ship: queue the notifier's snapshot (it
        already dominates the release clocks of everything the notifier
        completed before notifying)."""
        self._event_sent[key] = self._event_sent.get(key, 0) + 1
        self._pending_events.setdefault(key, []).append(self.snapshot(rank))

    def event_consumed(self, rank: int, key: tuple, count: int = 1) -> None:
        """A wait consumed ``count`` posts: merge that many queued notifier
        snapshots (FIFO; direct same-image posts queue nothing)."""
        pending = self._pending_events.get(key)
        for _ in range(min(count, len(pending) if pending else 0)):
            self.merge(rank, pending.pop(0))
        self._event_consumed[key] = self._event_consumed.get(key, 0) + count

    # -- finalization ------------------------------------------------------

    def finalize(self) -> SanitizerReport:
        """End of run: file lost-notify diagnostics and seal the report."""
        if self.finalized:
            return self.report
        self.finalized = True
        for key, sent in sorted(self._event_sent.items()):
            if self._event_consumed.get(key, 0) == 0:
                event_id, owner, slot = key
                self.report.add(
                    Diagnostic(
                        kind="lost-notify",
                        message=(
                            f"event {event_id} slot {slot} at rank {owner} was "
                            f"notified {sent} time(s) but never waited on"
                        ),
                        rank=owner,
                        time=self.engine.now,
                        count=sent,
                    )
                )
        self.report.stats = dict(self.stats)
        return self.report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Sanitizer ranks={self.nranks} records={self.stats['records']} "
            f"diags={len(self.report.diagnostics)}>"
        )
