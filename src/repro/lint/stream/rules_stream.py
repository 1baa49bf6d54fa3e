"""The stream-tier rule pack: findings from compiled symbolic op streams.

``check_stream`` compiles a module's entry points at a small probe image
count, then emits:

* **CAF012** from the cross-rank matcher (:mod:`.match`) — Fig. 2
  dual-runtime deadlocks held across function calls or loop iterations,
  event starvation, recv starvation.  Findings that the syntactic tier
  already reports (CAF006 on the same function, CAF005 on the same
  line) are dropped: the symbolic tier *extends* the syntactic one, it
  does not echo it.
* **CAF011 / CAF013 / CAF014** — the performance pack.  Each finding is
  annotated with the predicted asymptotic cost, built from the op's
  symbolic enclosing-loop trip counts (kept in ``P`` and the entry's
  parameters) times the op's own cost order.
"""

from __future__ import annotations

from ..findings import Finding
from ..model import ModuleModel
from . import sym as symlib
from .interp import (
    EntryStreams,
    ModuleStreams,
    StreamCompiler,
    StreamOp,
    entry_functions,
)
from .match import analyze_entry
from .sym import ORDER_LINEAR, ORDER_POLY, ORDER_UNKNOWN, Sym, order_text

#: Probe configuration: small enough to stay inside the lint time budget,
#: concrete enough that rank arithmetic (XOR partners, rank +/- 1
#: neighbors) resolves exactly.
PROBE_NRANKS = 4
PROBE_LOOP_CAP = 8
PROBE_STEP_BUDGET = 6_000

#: Payload sizes at or below this are "tiny" for CAF014 (a scalar flag or
#: a couple of elements — far below any eager threshold).
EAGER_TINY_BYTES = 64


def compile_streams(model: ModuleModel) -> ModuleStreams:
    """Compile ``model`` with probe settings (shared by lint + tests)."""
    compiler = StreamCompiler(
        model,
        nranks=PROBE_NRANKS,
        loop_cap=PROBE_LOOP_CAP,
        step_budget=PROBE_STEP_BUDGET,
    )
    return compiler.compile()


def check_stream(
    model: ModuleModel,
    syntactic: list[Finding],
    streams: ModuleStreams | None = None,
) -> list[Finding]:
    """Run the stream tier; ``syntactic`` is used for cross-tier dedupe."""
    if streams is None:
        if not entry_functions(model):
            return []  # no entry points: skip module-env setup entirely
        streams = compile_streams(model)
    findings: list[Finding] = []
    caf006_funcs = {f.func for f in syntactic if f.rule == "CAF006"}
    caf006_lines = {f.line for f in syntactic if f.rule == "CAF006"}
    caf005_lines = {f.line for f in syntactic if f.rule == "CAF005"}
    for entry in streams.entries:
        findings.extend(
            _matcher_findings(
                entry, model, caf006_funcs, caf006_lines, caf005_lines
            )
        )
        findings.extend(_perf_findings(entry, model))
    return _dedupe(findings)


def _dedupe(findings: list[Finding]) -> list[Finding]:
    seen: set[tuple[str, int, str]] = set()
    out = []
    for f in findings:
        key = (f.rule, f.line, f.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def _matcher_findings(
    entry: EntryStreams,
    model: ModuleModel,
    caf006_funcs: set[str],
    caf006_lines: set[int],
    caf005_lines: set[int],
) -> list[Finding]:
    out = []
    for problem in analyze_entry(entry):
        if problem.kind == "dual-runtime" and (
            problem.func in caf006_funcs or problem.line in caf006_lines
        ):
            continue  # syntactic CAF006 already covers this site
        if problem.kind == "event-starvation" and problem.line in caf005_lines:
            continue
        out.append(
            Finding(
                rule="CAF012",
                path=str(model.path),
                line=problem.line,
                col=problem.col,
                func=problem.func,
                message=f"[{entry.qualname} @ P={entry.nranks}] {problem.message}",
                related=[
                    ("stream", line, text) for line, text in problem.related
                ],
            )
        )
    return out


def _perf_findings(entry: EntryStreams, model: ModuleModel) -> list[Finding]:
    out = []
    reported: set[tuple[str, int]] = set()
    for rs in entry.ranks:
        for op in rs.ops:
            rule = _perf_rule_for(op)
            if rule is None:
                continue
            key = (rule, op.line)
            if key in reported:
                continue
            reported.add(key)
            out.append(_perf_finding(rule, op, entry, model))
    return out


def _perf_rule_for(op: StreamOp) -> str | None:
    if op.loop_depth == 0:
        return None
    trip = op.trip_product()
    if op.method in ("flush_all", "flush_local_all"):
        if _repeats(trip):
            return "CAF011"
        return None
    if op.method == "sync":
        if op.note == "separate" and _repeats(trip):
            return "CAF013"
        return None
    if (
        op.is_message
        and op.nbytes is not None
        and 0 < op.nbytes <= EAGER_TINY_BYTES
        and trip.order_in_p() in (ORDER_LINEAR, ORDER_POLY)
    ):
        return "CAF014"
    return None


def _repeats(trip: Sym) -> bool:
    """Does the enclosing loop nest run more than once?  Constants must
    exceed 1; anything parameter- or P-dependent (or unresolvable)
    counts as repeated — a loop is a loop."""
    if trip.is_const:
        value = trip.const_value
        return value is not None and value > 1
    return True


def _perf_finding(
    rule: str, op: StreamOp, entry: EntryStreams, model: ModuleModel
) -> Finding:
    trip = op.trip_product()
    trip_text = trip.text() if trip.kind != "unknown" else "trip"
    per_op_p = Sym.var(symlib.P) if rule == "CAF011" else symlib.ONE
    total = Sym.op("*", trip, per_op_p) if trip.kind != "unknown" else per_op_p
    order = total.order_in_p()
    if rule == "CAF011":
        cost = f"Θ({trip_text} · P)"
        detail = (
            f"flush_all walks all P={entry.nranks} ranks per call inside a "
            f"loop nest with symbolic trip {trip_text}; predicted cost "
            f"{cost}, {order_text(order if order != ORDER_UNKNOWN else ORDER_LINEAR)} "
            "or worse overall"
        )
    elif rule == "CAF013":
        cost = f"Θ({trip_text})"
        detail = (
            "per-iteration WIN_SYNC on a separate-model window pays a "
            f"public/private reconciliation each of {trip_text} iterations; "
            f"predicted cost {cost}"
        )
    else:  # CAF014
        cost = f"Θ({trip_text})"
        detail = (
            f"{op.nbytes}-byte {op.method} repeated across a loop nest with "
            f"symbolic trip {trip_text} (grows with P); predicted "
            f"{cost} latency-bound messages from rank {op.rank} alone"
        )
    related = [
        ("loop", line, f"enclosing loop (trip {t.text() if t.kind != 'unknown' else '?'})")
        for line, t in zip(op.loop_lines, op.loop_trips)
    ]
    return Finding(
        rule=rule,
        path=str(model.path),
        line=op.line,
        col=op.col,
        func=op.func,
        message=f"[{entry.qualname} @ P={entry.nranks}] {detail}",
        related=related,
    )


# Re-export for engine/tests convenience.
__all__ = [
    "check_stream",
    "compile_streams",
    "PROBE_NRANKS",
    "PROBE_LOOP_CAP",
    "PROBE_STEP_BUDGET",
    "EAGER_TINY_BYTES",
]