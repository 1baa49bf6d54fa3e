"""Live run telemetry: a streaming JSONL tap on a running simulation.

Paper-scale runs (4096-rank RA is ~500s of wall clock) are black boxes
until they finish; this module is the heartbeat that makes them
observable *while they run*. :class:`LiveTelemetry` attaches to a cluster
the same way the sanitizer and metrics layers do — a handle cached on the
engine, guarded by one ``is None`` test per executed resume — and
periodically appends one JSON snapshot line to a ``*.telemetry.jsonl``
stream: sim-time and wall-time progress, events/s, per-rank run/blocked
state with blocked call sites (the watchdog's bookkeeping), and host RSS.

The tap only *reads* engine state and writes to its own file, so the
executed schedule — event-order digest, virtual makespan, profiler totals
— is bit-identical with telemetry on or off
(`benchmarks/test_bench_obs_live.py` pins the wall-clock overhead ≤ 3%).

Enable per run with ``run_caf(..., live="run.telemetry.jsonl")``, per CLI
with ``python -m repro.apps <app> --live PATH`` or
``python -m repro.experiments ... --metrics DIR --live``, and render with
``python -m repro.obs top PATH`` (``--follow`` tails a running stream).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, TextIO

from repro.obs.artifact import SchemaError, checker, dumps, require
from repro.obs.report import need_fiber_placement, need_handoffs
from repro.util.tables import format_table

SCHEMA_NAME = "repro.obs/telemetry"
SCHEMA_VERSION = 1

#: Default wall-clock seconds between snapshots.
DEFAULT_INTERVAL_S = 0.5
#: Executed resumes between wall-clock checks (keeps the hot path to a
#: counter decrement; the clock is only read every N events).
DEFAULT_CHECK_EVERY = 512
#: Most-stale blocked ranks detailed per snapshot (the rest are counted).
DEFAULT_MAX_BLOCKED = 16


def _rss_bytes() -> int:
    """Resident set size of this process, in bytes (0 if unknowable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        try:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:  # pragma: no cover - exotic platforms
            return 0


class LiveTelemetry:
    """One run's streaming telemetry tap.

    Construct with the output path (optionally interval/cadence and run
    context), hand it to ``run_caf(live=...)`` / ``Cluster(live=...)``,
    and the engine drives :meth:`tick` on every executed resume. Snapshots
    are emitted at most every ``interval_s`` wall seconds (checked every
    ``check_every`` events); ``interval_s=0`` emits on every check, which
    is what the tests use to force dense streams from short runs.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        interval_s: float | None = None,
        check_every: int = DEFAULT_CHECK_EVERY,
        max_blocked: int = DEFAULT_MAX_BLOCKED,
        backend: str | None = None,
        app: str | None = None,
        label: str | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.interval_s = (
            DEFAULT_INTERVAL_S if interval_s is None else float(interval_s)
        )
        if self.interval_s < 0:
            raise ValueError(f"interval_s must be >= 0, got {self.interval_s}")
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        #: Executed resumes between wall-clock checks. The engine holds the
        #: countdown itself (one decrement per event when armed) and calls
        #: :meth:`tick` only when it expires.
        self.check_every = check_every
        self._max_blocked = max_blocked
        self.backend = backend
        self.app = app
        self.label = label
        self._cluster: Any = None
        self._fh: TextIO | None = None
        self._seq = 0
        self._t0 = 0.0
        self._last_wall = 0.0
        self._last_events = 0
        self._finalized = False
        #: The most recent snapshot dict (errors and failure reports stamp
        #: this as the run's progress trail).
        self.last: dict[str, Any] | None = None

    # -- lifecycle -------------------------------------------------------

    def attach(self, cluster: Any) -> None:
        """Bind to a cluster and open the stream.

        The meta header line is written with the first snapshot — the first
        resume of the run — because it records where the host put the run's
        fibers, which the engine only decides in ``run()``.
        """
        if self._cluster is not None or self._finalized:
            raise SchemaError("LiveTelemetry is single-run; already attached")
        self._cluster = cluster
        now = time.monotonic()
        self._t0 = now
        self._last_wall = now - self.interval_s  # first check may emit
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")

    def _write_meta(self) -> None:
        cluster = self._cluster
        engine = cluster.engine
        self._write(
            {
                "schema": SCHEMA_NAME,
                "version": SCHEMA_VERSION,
                "type": "meta",
                "nranks": cluster.nranks,
                "spec": cluster.spec.name,
                "seed": cluster.seed,
                # The tap's own labels, else the ones the cluster carries.
                "backend": cluster.backend if self.backend is None else self.backend,
                "app": cluster.app if self.app is None else self.app,
                "label": self.label,
                "interval_s": self.interval_s,
                "check_every": self.check_every,
                "pid": os.getpid(),
                # A run that is slow because another process chose the same
                # CPU (or because the host refused placement) says so here.
                "fiber_cpu": engine.fiber_cpu,
                "fiber_policy": engine.fiber_policy,
            }
        )

    def tick(self, engine: Any) -> None:
        """Engine heartbeat: called every ``check_every`` executed resumes.

        Reads state and writes to the tap's own file only — never touches
        the engine — so the event order is unchanged by construction.
        """
        wall = time.monotonic()
        if wall - self._last_wall < self.interval_s:
            return
        self._emit(wall, final=False, outcome=None)

    def capture_now(
        self,
        *,
        outcome: str,
        blocked: dict[int, str] | None = None,
        last_progress: dict[int, float] | None = None,
    ) -> dict[str, Any]:
        """Emit a final snapshot immediately (the failure-stamping path).

        ``blocked`` / ``last_progress`` (rank -> call site / rank -> time,
        the watchdog's bookkeeping carried by ``DeadlockError`` and
        ``SimTimeoutError``) override the per-proc state walk: by the time
        those errors surface, the engine has already unwound the fibers,
        so live proc states read "done" for ranks that died blocked.
        """
        snap = self._emit(
            time.monotonic(),
            final=True,
            outcome=outcome,
            blocked_override=blocked,
            last_progress=last_progress,
        )
        self._finalized = True
        return snap

    def close(self, *, outcome: str = "ok") -> None:
        """Emit the final snapshot (unless one exists) and close the file."""
        if self._fh is None:
            return
        if not self._finalized:
            self._emit(time.monotonic(), final=True, outcome=outcome)
            self._finalized = True
        self._fh.close()
        # The cluster holds this tap: the run is over, so let go of it.
        self._fh = self._cluster = None

    @property
    def snapshots_written(self) -> int:
        return self._seq

    # -- snapshot assembly ----------------------------------------------

    def _emit(
        self,
        wall: float,
        *,
        final: bool,
        outcome: str | None,
        blocked_override: dict[int, str] | None = None,
        last_progress: dict[int, float] | None = None,
    ) -> dict[str, Any]:
        cluster = self._cluster
        engine = cluster.engine
        events = engine.events_executed
        dt = wall - self._last_wall
        de = events - self._last_events
        nranks = cluster.nranks
        running = blocked = done = 0
        blocked_rows: list[dict[str, Any]] = []
        if blocked_override is not None:
            lp = last_progress or {}
            blocked = len(blocked_override)
            done = nranks - blocked
            for rank, site in blocked_override.items():
                blocked_rows.append(
                    {
                        "rank": rank,
                        "site": site,
                        "last_progress": lp.get(rank, 0.0),
                    }
                )
        else:
            for proc in engine.procs[:nranks]:
                if proc.state == proc.DONE:
                    done += 1
                elif proc.state == proc.RUNNING:
                    running += 1
                else:
                    blocked += 1
                    blocked_rows.append(
                        {
                            "rank": proc.pid,
                            "site": proc.block_reason,
                            "last_progress": proc.last_progress,
                        }
                    )
        blocked_rows.sort(key=lambda r: (r["last_progress"], r["rank"]))
        snap: dict[str, Any] = {
            "type": "snapshot",
            "seq": self._seq,
            "wall_s": wall - self._t0,
            "sim_s": engine.now,
            "events": events,
            "events_per_s": de / dt if dt > 0 else 0.0,
            "stale_wakes": engine.stale_wakes_dropped,
            "handoffs": engine.handoffs,
            "ranks": {
                "total": nranks,
                "running": running,
                "blocked": blocked,
                "done": done,
            },
            "blocked": blocked_rows[: self._max_blocked],
            "failed_images": sorted(cluster.failed_ranks),
            "rss_bytes": _rss_bytes(),
            "final": final,
        }
        if outcome is not None:
            snap["outcome"] = outcome
        if self._seq == 0:
            self._write_meta()
        self._seq += 1
        self._last_wall = wall
        self._last_events = events
        self.last = snap
        self._write(snap)
        return snap

    def describe_last(self) -> str:
        """One-line progress trail for error messages."""
        snap = self.last
        if snap is None:
            return f"no snapshots -> {self.path}"
        ranks = snap["ranks"]
        return (
            f"{snap['events']} events, sim t={snap['sim_s']:.9g}s, "
            f"{ranks['blocked']}/{ranks['total']} ranks blocked "
            f"-> {self.path}"
        )

    def _write(self, record: dict[str, Any]) -> None:
        fh = self._fh
        if fh is None:  # pragma: no cover - defensive (closed stream)
            return
        fh.write(dumps(record, line=True))
        fh.flush()


# -- stream reading / validation -------------------------------------------


def validate_meta(record: Any) -> None:
    """Schema-check a telemetry stream's meta header line."""
    need = checker("telemetry meta")
    need(isinstance(record, dict), "not a JSON object")
    need(record.get("schema") == SCHEMA_NAME, f"schema != {SCHEMA_NAME!r}")
    need(record.get("version") == SCHEMA_VERSION, f"version != {SCHEMA_VERSION}")
    need(record.get("type") == "meta", "type != 'meta'")
    require(record, "telemetry meta", {"nranks": int, "interval_s": (int, float)})
    need(record["nranks"] > 0, "nranks")
    need(record["interval_s"] >= 0, "interval_s")
    need_fiber_placement(record, need)


def validate_snapshot(record: Any, *, nranks: int | None = None) -> None:
    """Schema-check one telemetry snapshot line."""
    need = checker("telemetry snapshot")
    need(isinstance(record, dict), "not a JSON object")
    need(record.get("type") == "snapshot", "type != 'snapshot'")
    require(record, "telemetry snapshot", {
        "seq": int, "wall_s": (int, float), "sim_s": (int, float), "events_per_s": (int, float),
        "events": int, "rss_bytes": int, "final": bool, "ranks.total": int, "ranks.running": int,
        "ranks.blocked": int, "ranks.done": int, "blocked": list, "failed_images": list,
    })
    need(record["seq"] >= 0, "seq")
    need(record["events"] >= 0, "events")
    need_handoffs(record, need)
    ranks = record["ranks"]
    for fld in ("total", "running", "blocked", "done"):
        need(ranks[fld] >= 0, f"ranks.{fld}")
    need(
        ranks["running"] + ranks["blocked"] + ranks["done"] == ranks["total"],
        "ranks states do not sum to total",
    )
    if nranks is not None:
        need(ranks["total"] == nranks, "ranks.total != meta.nranks")
    for row in record["blocked"]:
        fields = {"rank": int, "site": str, "last_progress": (int, float)}
        require(row, "telemetry snapshot", fields, at="blocked[]")
    if record.get("final"):
        need(record.get("outcome") in ("ok", "failed"), "final without outcome")


def read_telemetry(
    path: str | os.PathLike,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load and validate a telemetry stream: ``(meta, snapshots)``.

    Tolerates a truncated trailing line (the run may still be writing) but
    rejects structurally invalid records.
    """
    meta: dict[str, Any] | None = None
    snaps: list[dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated in-flight tail line
            if meta is None:
                validate_meta(record)
                meta = record
                continue
            validate_snapshot(record, nranks=meta["nranks"])
            expect_seq = snaps[-1]["seq"] + 1 if snaps else 0
            if record["seq"] != expect_seq:
                raise SchemaError(
                    f"telemetry seq gap at line {lineno}: "
                    f"expected {expect_seq}, got {record['seq']}"
                )
            snaps.append(record)
    if meta is None:
        raise SchemaError(f"{path}: empty telemetry stream (no meta line)")
    return meta, snaps


# -- rendering (`python -m repro.obs top`) ----------------------------------


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def render_top(
    meta: dict[str, Any],
    snaps: list[dict[str, Any]],
    *,
    history: int = 8,
) -> str:
    """Human-readable view of a telemetry stream (latest state + history)."""
    name = meta.get("label") or meta.get("app") or "run"
    out = [
        f"== live telemetry: {name} x{meta['nranks']} images "
        f"(backend={meta.get('backend') or '?'}, spec={meta.get('spec', '?')}) =="
    ]
    if not snaps:
        out.append("no snapshots yet")
        return "\n".join(out)
    cur = snaps[-1]
    if cur.get("final"):
        status = f"FINAL ({cur.get('outcome', '?')})"
    else:
        status = "RUNNING"
    out.append(
        f"status: {status} | {len(snaps)} snapshot(s) | "
        f"wall {cur['wall_s']:.2f}s"
    )
    out.append(
        f"sim t={cur['sim_s']:.9g}s | {cur['events']} events "
        f"({cur['events_per_s']:,.0f} ev/s) | rss {_fmt_bytes(cur['rss_bytes'])}"
    )
    ranks = cur["ranks"]
    out.append(
        f"ranks: {ranks['running']} running, {ranks['blocked']} blocked, "
        f"{ranks['done']} done / {ranks['total']}"
    )
    if cur["failed_images"]:
        out.append(f"failed images: {cur['failed_images']}")
    if cur["blocked"]:
        rows = [
            [r["rank"], r["site"], f"{r['last_progress']:.9g}"]
            for r in cur["blocked"]
        ]
        title = f"blocked ranks (most stale first, {ranks['blocked']} total)"
        out.append(
            format_table(["rank", "blocked in", "last progress t"], rows, title=title)
        )
    if len(snaps) > 1:
        tail = snaps[-history:]
        rows = [
            [
                s["seq"],
                f"{s['wall_s']:.2f}",
                f"{s['sim_s']:.4g}",
                s["events"],
                f"{s['events_per_s']:,.0f}",
                s["ranks"]["blocked"],
            ]
            for s in tail
        ]
        out.append(
            format_table(
                ["seq", "wall s", "sim s", "events", "ev/s", "blocked"],
                rows,
                title=f"recent snapshots ({len(snaps)} total)",
            )
        )
    return "\n".join(out)


def follow_top(
    path: str | os.PathLike,
    *,
    interval: float = 1.0,
    max_wait: float | None = None,
    out: Any = None,
) -> int:
    """Re-render a stream until its final snapshot lands (``top --follow``).

    Returns 0 when a final snapshot was seen, 2 if ``max_wait`` wall
    seconds elapsed first.
    """
    import sys

    stream = out if out is not None else sys.stdout
    t0 = time.monotonic()
    while True:
        meta, snaps = read_telemetry(path)
        print(render_top(meta, snaps), file=stream)
        if snaps and snaps[-1].get("final"):
            return 0
        if max_wait is not None and time.monotonic() - t0 >= max_wait:
            return 2
        print("", file=stream)
        time.sleep(interval)
