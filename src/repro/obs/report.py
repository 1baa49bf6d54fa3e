"""RunReport: the JSON-serializable artifact one simulated run explains
itself with.

Assembled from the :class:`~repro.obs.metrics.Metrics` registry, the
profiler's per-category time decomposition, the fabric's
:class:`~repro.obs.metrics.CommMatrix`, and (when the run was traced) the
:mod:`~repro.obs.critical` path. Field ordering is deterministic — the same
run always serializes byte-identically, up to the two ``meta.fiber_*`` host
facts — so reports diff cleanly and CI can archive them next to
``BENCH_wallclock.json``.

Exporters: canonical JSON (:meth:`RunReport.to_json`), Prometheus-style
text (:meth:`RunReport.to_prometheus`), and the existing Chrome-trace export
on the tracer for the time axis. ``python -m repro.obs`` renders and diffs
report files (bench-regression triage).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.obs.artifact import Document, checker, flatten_report, require
from repro.obs.artifact import SchemaError as SchemaError  # re-exported
from repro.obs.critical import critical_path
from repro.util.tables import format_table

SCHEMA_NAME = "repro.obs/run-report"
SCHEMA_VERSION = 1

#: Keep the serialized comm matrix dense only up to this many ranks; larger
#: runs store the top pairs (the matrix itself stays queryable in-process).
_DENSE_MATRIX_LIMIT = 256


@dataclass
class RunReport(Document):
    """One run's observability artifact (a thin typed wrapper over the
    canonical dict form, which is what serializes/validates/diffs)."""

    data: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def validate(data: Any) -> None:
        validate_report(data)

    # -- accessors -------------------------------------------------------

    @property
    def ops(self) -> dict[str, Any]:
        """Aggregated per-kind op stats: kind -> {calls, bytes, time, ...}."""
        return self.data["ops"]["kinds"]

    @property
    def makespan(self) -> float:
        return self.data["meta"]["makespan"]

    def op(self, kind: str) -> dict[str, Any]:
        return self.data["ops"]["kinds"].get(
            kind, {"calls": 0, "bytes": 0, "time": 0.0}
        )

    # -- exporters -------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the scalar metrics.

        Virtual-time metrics carry a ``repro_`` prefix; labels identify the
        op kind / category. Scrape-ready for pushgateway-style archiving.
        """
        lines: list[str] = []
        meta = self.data["meta"]
        lab = f'backend="{meta.get("backend", "")}",nranks="{meta["nranks"]}"'
        lines.append("# TYPE repro_run_makespan_seconds gauge")
        lines.append(f"repro_run_makespan_seconds{{{lab}}} {meta['makespan']:.9e}")
        lines.append("# TYPE repro_op_calls_total counter")
        lines.append("# TYPE repro_op_bytes_total counter")
        lines.append("# TYPE repro_op_time_seconds_total counter")
        for kind in sorted(self.data["ops"]["kinds"]):
            s = self.data["ops"]["kinds"][kind]
            klab = f'kind="{kind}",{lab}'
            lines.append(f"repro_op_calls_total{{{klab}}} {s['calls']}")
            lines.append(f"repro_op_bytes_total{{{klab}}} {s['bytes']}")
            lines.append(f"repro_op_time_seconds_total{{{klab}}} {s['time']:.9e}")
        lines.append("# TYPE repro_profiler_category_seconds gauge")
        for cat in sorted(self.data["profiler"]["breakdown"]):
            v = self.data["profiler"]["breakdown"][cat]
            lines.append(
                f'repro_profiler_category_seconds{{category="{cat}",{lab}}} {v:.9e}'
            )
        fabric = self.data["fabric"]
        lines.append("# TYPE repro_fabric_messages_total counter")
        lines.append(f"repro_fabric_messages_total{{{lab}}} {fabric['messages']}")
        lines.append("# TYPE repro_fabric_bytes_total counter")
        lines.append(f"repro_fabric_bytes_total{{{lab}}} {fabric['bytes']}")
        for name in sorted(self.data.get("counters", {})):
            lines.append(
                f'repro_counter_total{{name="{name}",{lab}}} '
                f"{self.data['counters'][name]}"
            )
        return "\n".join(lines) + "\n"

    def render(self, *, top: int = 12) -> str:
        """Human-readable multi-table rendering (the CLI's output)."""
        meta = self.data["meta"]
        out = [
            f"== run report: {meta.get('label') or meta.get('app') or 'run'} "
            f"x{meta['nranks']} images (backend={meta.get('backend', '?')}, "
            f"spec={meta.get('spec', '?')}) ==",
            f"virtual makespan: {meta['makespan'] * 1e3:.3f} ms",
        ]
        tel = meta.get("telemetry")
        if tel:
            out.append(
                f"live telemetry: {tel['snapshots']} snapshot(s) -> {tel['path']}"
            )
        fail = self.data.get("failure")
        if fail:
            out.append(
                f"outcome: FAILED ({fail['error']}) — {fail['message']}"
            )
            if fail.get("failed_images"):
                out.append(f"failed images: {fail['failed_images']}")
        breakdown = self.data["profiler"]["breakdown"]
        if breakdown:
            rows = sorted(breakdown.items(), key=lambda kv: (-kv[1], kv[0]))
            out.append(
                format_table(
                    ["category", "mean s/image"], rows, title="time decomposition"
                )
            )
        kinds = self.data["ops"]["kinds"]
        if kinds:
            rows = [
                [
                    k,
                    s["calls"],
                    s["bytes"],
                    f"{s['time']:.3e}",
                    f"{(s['time'] / s['calls'] if s['calls'] else 0.0):.3e}",
                ]
                for k, s in sorted(
                    kinds.items(), key=lambda kv: (-kv[1]["time"], kv[0])
                )
            ]
            out.append(
                format_table(
                    ["op kind", "calls", "bytes", "time (s)", "s/call"],
                    rows,
                    title="op-level metrics (all ranks)",
                )
            )
        cm = self.data.get("comm_matrix")
        if cm and cm.get("top_pairs"):
            rows = [[f"{s}->{d}", m, b] for s, d, m, b in cm["top_pairs"][:top]]
            out.append(
                format_table(
                    ["pair", "messages", "bytes"],
                    rows,
                    title=f"heaviest traffic pairs (of {cm['total_messages']} msgs, "
                    f"{cm['total_bytes']} bytes)",
                )
            )
        cp = self.data.get("critical_path")
        if cp:
            rows = sorted(
                cp["by_category"].items(), key=lambda kv: (-kv[1], kv[0])
            )
            out.append(
                format_table(
                    ["category", "path seconds"],
                    rows,
                    title=f"critical path ({len(cp['steps'])} steps, "
                    f"{cp['coverage'] * 100:.1f}% of makespan attributed)",
                )
            )
        return "\n".join(out)


def need_handoffs(record: dict[str, Any], need: Callable[[bool, str], None]) -> None:
    """Check ``handoffs`` (``Engine.handoffs``) in a report meta object or a
    telemetry snapshot. Optional: older artifacts do not carry it."""
    handoffs = record.get("handoffs", 0)
    need(type(handoffs) is int and handoffs >= 0, "handoffs")


def need_fiber_placement(meta: dict[str, Any], need: Callable[[bool, str], None]) -> None:
    """Check ``fiber_cpu`` / ``fiber_policy`` in a report or telemetry meta
    object. Both are optional: artifacts written before the engine placed
    its fibers (see ``Engine.fiber_cpu``) carry neither."""
    cpu = meta.get("fiber_cpu")
    need(cpu is None or (type(cpu) is int and cpu >= 0), "meta.fiber_cpu")
    need(
        meta.get("fiber_policy", "normal") in ("batch", "normal"),
        "meta.fiber_policy",
    )


def validate_report(data: Any) -> None:
    """Structural schema check; raises :class:`SchemaError` on violation."""
    need = checker("run report")
    need(isinstance(data, dict), "not a JSON object")
    need(data.get("schema") == SCHEMA_NAME, f"schema != {SCHEMA_NAME!r}")
    need(data.get("version") == SCHEMA_VERSION, f"version != {SCHEMA_VERSION}")
    fields: dict[str, Any] = {
        "meta.nranks": int, "meta.makespan": (int, float), "profiler.breakdown": dict,
        "profiler.counts": dict, "ops.kinds": dict, "fabric.messages": int, "fabric.bytes": int,
    }
    meta, fail = data.get("meta"), data.get("failure")
    if isinstance(meta, dict) and "telemetry" in meta:
        fields.update({"meta.telemetry.path": str, "meta.telemetry.snapshots": int})
    if fail is not None:
        fields.update({"failure.error": str, "failure.message": str, "failure.failed_images": list})
    if data.get("comm_matrix") is not None:
        fields["comm_matrix.total_messages"] = int
    if data.get("critical_path") is not None:
        fields.update({"critical_path.steps": list, "critical_path.by_category": dict})
    require(data, "run report", fields)
    need(meta["nranks"] > 0, "meta.nranks")
    if "outcome" in meta:
        need(meta["outcome"] in ("ok", "failed"), "meta.outcome")
    need_fiber_placement(meta, need)
    need_handoffs(meta, need)
    if "telemetry" in meta:
        need(meta["telemetry"]["snapshots"] >= 0, "meta.telemetry.snapshots")
    if fail is not None:
        need(meta.get("outcome") == "failed", "failure present but outcome != failed")
        if "last_telemetry" in fail:
            need(isinstance(fail["last_telemetry"], dict), "failure.last_telemetry")
    for kind, s in data["ops"]["kinds"].items():
        stats = {"calls": int, "bytes": int, "time": (int, float)}
        require(s, "run report", stats, at=f"ops.kinds[{kind!r}]")


def build_report(
    cluster,
    *,
    backend: str | None = None,
    label: str | None = None,
    app: str | None = None,
    failure: BaseException | None = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from a finished cluster's services.

    Works with or without metrics/tracing enabled: absent subsystems yield
    empty/None sections, so a bare profiler-only run still reports.

    ``failure`` marks the report as a *partial* one cut at the moment the
    run died: ``meta.outcome`` becomes ``"failed"`` and a ``failure``
    section records the error, the failed-image set, and the cluster's
    failure log — enough for post-mortem triage without rerunning.
    """
    profiler = cluster.profiler
    counts: dict[str, int] = {}
    for per_rank in profiler.counts:
        for cat, n in per_rank.items():
            counts[cat] = counts.get(cat, 0) + n
    fabric = cluster.fabric
    data: dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "meta": {
            "nranks": cluster.nranks,
            "backend": backend,
            "label": label,
            "app": app,
            "spec": cluster.spec.name,
            "seed": cluster.seed,
            "makespan": cluster.elapsed,
            "metrics_enabled": cluster.metrics is not None,
            "traced": bool(cluster.tracer.events),
            "outcome": "failed" if failure is not None else "ok",
            # Host placement of the fibers: a run that is slow because two
            # processes chose the same CPU is diagnosable from the artifact.
            "fiber_cpu": cluster.engine.fiber_cpu,
            "fiber_policy": cluster.engine.fiber_policy,
            # Resumes that cost a host context switch (the rest ran on the
            # dispatching fiber): exact for the program, whatever the host.
            "handoffs": cluster.engine.handoffs,
        },
        "profiler": {
            "breakdown": dict(sorted(profiler.breakdown().items())),
            "counts": dict(sorted(counts.items())),
            "per_rank": [
                dict(sorted(times.items())) for times in profiler.times
            ],
        },
        "ops": (
            cluster.metrics.to_dict()
            if cluster.metrics is not None
            else {"kinds": {}, "per_rank": [], "counters": {}, "gauges": {}}
        ),
        "counters": (
            dict(sorted(cluster.metrics.counters.items()))
            if cluster.metrics is not None
            else {}
        ),
        "fabric": {
            "messages": fabric.messages_sent,
            "bytes": fabric.bytes_sent,
            "dropped": fabric.dropped,
            "corrupted": fabric.corrupted,
            "duplicated": fabric.duplicated,
            "delayed": fabric.delayed,
            "blackholed": fabric.blackholed,
        },
        "comm_matrix": None,
        "critical_path": None,
    }
    tel = getattr(cluster, "telemetry", None)
    if tel is not None:
        data["meta"]["telemetry"] = {
            "path": str(tel.path),
            "snapshots": tel.snapshots_written,
        }
    if failure is not None:
        data["failure"] = {
            "error": type(failure).__name__,
            "message": str(failure),
            "failed_images": sorted(getattr(cluster, "failed_ranks", ())),
            "failure_log": [dict(e) for e in getattr(cluster, "failure_log", [])],
        }
        if tel is not None and tel.last is not None:
            # The progress trail the run died with (satellite of the live
            # tap): final snapshot at the moment of death.
            data["failure"]["last_telemetry"] = tel.last
    cm = cluster.comm_matrix
    if cm is not None:
        entry: dict[str, Any] = {
            "nranks": cm.nranks,
            "total_messages": cm.total_messages(),
            "total_bytes": cm.total_bytes(),
            "top_pairs": [list(p) for p in cm.top_pairs(16)],
        }
        if cm.nranks <= _DENSE_MATRIX_LIMIT:
            entry["messages"] = cm.messages.tolist()
            entry["bytes"] = cm.bytes.tolist()
        data["comm_matrix"] = entry
    if cluster.tracer.events:
        data["critical_path"] = critical_path(
            cluster.tracer.events, makespan=cluster.elapsed
        ).to_dict()
    validate_report(data)
    return RunReport(data)


# -- diffing ---------------------------------------------------------------


def _rel(old: float, new: float) -> float | None:
    if old == 0:
        return None if new == 0 else float("inf")
    return (new - old) / old


@dataclass
class ReportDiff:
    """Structured comparison of two run reports (bench-regression triage)."""

    a_label: str
    b_label: str
    rows: list[tuple[str, float, float, float | None]]  # metric, a, b, rel

    def regressions(self, threshold: float) -> list[tuple[str, float, float, float]]:
        """Rows whose relative change exceeds ``threshold`` (e.g. 0.05)."""
        out = []
        for metric, a, b, rel in self.rows:
            if rel is not None and rel != 0 and abs(rel) > threshold:
                out.append((metric, a, b, rel))
        return out

    def render(self, *, threshold: float | None = None, limit: int = 40) -> str:
        rows = [
            (m, a, b, rel)
            for m, a, b, rel in self.rows
            if rel is not None and rel != 0
        ]
        rows.sort(key=lambda r: (-abs(r[3]), r[0]))
        table_rows = [
            [m, f"{a:g}", f"{b:g}", f"{rel * 100:+.2f}%"]
            for m, a, b, rel in rows[:limit]
        ]
        if not table_rows:
            return f"no differences: {self.a_label} == {self.b_label}"
        text = format_table(
            ["metric", self.a_label, self.b_label, "change"],
            table_rows,
            title=f"report diff ({len(rows)} changed metrics)",
        )
        if threshold is not None:
            bad = self.regressions(threshold)
            text += (
                f"\n{len(bad)} metric(s) changed beyond {threshold * 100:.1f}%"
                if bad
                else f"\nall changes within {threshold * 100:.1f}%"
            )
        return text


def diff_reports(
    a: RunReport | dict[str, float], b: RunReport | dict[str, float], *,
    a_label: str = "a", b_label: str = "b",
) -> ReportDiff:
    """Flatten both reports to scalar metrics and compare them pairwise. Either
    side may instead be an artifact already flattened to its scalar rows
    (:func:`repro.obs.artifact.flatten`: run reports and replay results)."""
    fa, fb = (flatten_report(r.data) if isinstance(r, RunReport) else r for r in (a, b))
    rows = [
        (metric, fa.get(metric, 0.0), fb.get(metric, 0.0),
         _rel(fa.get(metric, 0.0), fb.get(metric, 0.0)))
        for metric in sorted(set(fa) | set(fb))
    ]
    return ReportDiff(a_label=a_label, b_label=b_label, rows=rows)


def diff_reports_all(
    baseline: RunReport | dict[str, float],
    candidates: Sequence[RunReport | dict[str, float]],
    *,
    baseline_label: str = "baseline",
    labels: list[str] | None = None,
) -> list[ReportDiff]:
    """Compare every candidate report against one baseline.

    Returns one :class:`ReportDiff` per candidate, in input order — the
    N-reports-vs-baseline mode behind ``python -m repro.obs diff --all``.
    """
    if labels is None:
        labels = [f"report[{i}]" for i in range(len(candidates))]
    if len(labels) != len(candidates):
        raise ValueError(
            f"{len(candidates)} candidate report(s) but {len(labels)} label(s)"
        )
    return [
        diff_reports(baseline, cand, a_label=baseline_label, b_label=label)
        for cand, label in zip(candidates, labels)
    ]
