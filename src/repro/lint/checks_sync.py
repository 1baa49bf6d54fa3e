"""Sync-discipline rules: CAF002/003 (put/async completion), CAF004/005
(event pairing), CAF008 (finish misuse).

CAF002/003 scan the linearized op stream of each function: a put leaves a
hazard that only a synchronization point (``sync_all``, ``cofence``,
``sync_images``, a collective, an event ``wait``, a flush, or a
``finish`` boundary) clears. Event pairing is module-wide and skips
events that *escape* into call arguments — those are paired by code the
linter cannot see (async-collective completion events, helper
functions).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import (
    ASYNC_METHODS,
    PUT_METHODS,
    FunctionInfo,
    ModuleModel,
    Op,
    is_sync,
    method_name,
    snippet,
    target_key,
)


def _has_completion_event(call: ast.Call | None) -> bool:
    return call is not None and any(
        kw.arg in ("src_event", "dest_event") for kw in call.keywords
    )


def check_sync_discipline(fn: FunctionInfo, model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    ops = model.ops_for(fn)

    pending_puts: dict[str, Op] = {}  # coarray var -> first unsynced put
    pending_async: list[Op] = []

    for op in ops:
        if is_sync(op):
            pending_puts.clear()
            pending_async.clear()
            continue
        if op.kind == "call" and model.tag(op.recv) == "coarray":
            if op.method in PUT_METHODS:
                pending_puts.setdefault(op.recv or "", op)
            if op.method in ASYNC_METHODS and not _has_completion_event(op.call):
                pending_async.append(op)
            continue
        if op.kind == "local" and op.recv in pending_puts:
            put = pending_puts[op.recv]
            findings.append(
                Finding(
                    rule="CAF002",
                    path=model.path,
                    line=op.node.lineno,
                    col=op.node.col_offset,
                    func=fn.qualname,
                    message=(
                        f"local view of coarray '{op.recv}' accessed after the put "
                        f"at line {put.node.lineno} with no synchronization in "
                        f"between: under SPMD symmetry the target image's local "
                        f"access races the origin's put"
                    ),
                    related=[("put", put.node.lineno, snippet(put.node))],
                )
            )
            # one report per put site; further reads of the same stale
            # coarray add nothing.
            del pending_puts[op.recv]

    for op in pending_async:
        findings.append(
            Finding(
                rule="CAF003",
                path=model.path,
                line=op.node.lineno,
                col=op.node.col_offset,
                func=fn.qualname,
                message=(
                    f"{op.method}() on coarray '{op.recv}' has no completion "
                    f"event and no cofence/sync before the function ends: "
                    f"local buffer reuse and remote visibility are unordered"
                ),
            )
        )

    return findings


def check_event_pairing(model: ModuleModel) -> list[Finding]:
    """CAF004/CAF005: module-wide notify/wait pairing per event variable."""
    notifies: dict[str, list[ast.Call]] = {}
    waits: dict[str, list[ast.Call]] = {}
    bounded_waits: dict[str, list[ast.Call]] = {}

    for node in model.nodes:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        recv = target_key(_peel(node.func.value))
        if not recv or model.tags.get(recv) != "event":
            continue
        name = node.func.attr
        if name == "notify":
            notifies.setdefault(recv, []).append(node)
        elif name in ("wait", "trywait"):
            timed = name == "trywait" or any(kw.arg == "timeout" for kw in node.keywords)
            (bounded_waits if timed else waits).setdefault(recv, []).append(node)

    findings: list[Finding] = []
    for recv, calls in notifies.items():
        if recv in model.escaped_events:
            continue
        if recv in waits or recv in bounded_waits:
            continue
        call = calls[0]
        findings.append(
            Finding(
                rule="CAF004",
                path=model.path,
                line=call.lineno,
                col=call.col_offset,
                func="",
                message=(
                    f"event '{recv}' is notified but never waited anywhere in "
                    f"this module: the notification is lost"
                ),
            )
        )
    for recv, calls in waits.items():
        if recv in model.escaped_events:
            continue
        if recv in notifies:
            continue
        call = calls[0]
        findings.append(
            Finding(
                rule="CAF005",
                path=model.path,
                line=call.lineno,
                col=call.col_offset,
                func="",
                message=(
                    f"unbounded wait on event '{recv}' which nothing in this "
                    f"module ever notifies: every image blocks here forever"
                ),
            )
        )
    return findings


def _peel(node: ast.AST) -> ast.AST:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def check_finish_usage(model: ModuleModel) -> list[Finding]:
    """CAF008: ``finish()`` must be entered as a context manager."""
    with_exprs: set[int] = set()
    with_names: set[str] = set()
    #: id of an assigned value -> its first tracked target.
    assigned: dict[int, str] = {}
    for node in model.nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                with_exprs.add(id(item.context_expr))
                key = target_key(item.context_expr)
                if key:
                    with_names.add(key)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                key = target_key(target)
                if key:
                    assigned.setdefault(id(node.value), key)
                    break

    findings: list[Finding] = []
    for node in model.nodes:
        if not isinstance(node, ast.Call) or method_name(node) != "finish":
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if len(node.args) > 1:
            continue  # CAF's finish takes at most a team: another API's method
        if id(node) in with_exprs:
            continue
        # `fb = img.finish()` later entered via `with fb:` is fine.
        if assigned.get(id(node)) in with_names:
            continue
        findings.append(
            Finding(
                rule="CAF008",
                path=model.path,
                line=node.lineno,
                col=node.col_offset,
                func="",
                message=(
                    "finish() creates a collective block but is never entered: "
                    "without `with`, termination detection of spawned activity "
                    "never runs"
                ),
            )
        )
    return findings
