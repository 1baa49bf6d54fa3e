"""Dual-runtime and AM-handler rules: CAF006, CAF007.

CAF006 is the paper's Figure 2 as a static pattern: coarray traffic that
may need target-side CAF progress (Active-Message based writes) is still
outstanding when the program blocks inside the *other* runtime (a raw
MPI barrier/recv/collective). The image whose memory the write targets
can be stuck inside MPI, never running the AM handler — and neither
runtime progresses the other. The rule fires on a blocking raw-MPI call
reachable after a coarray put with no CAF synchronization in between;
any sync/cofence/event-wait breaks the pattern, which is exactly the
discipline the paper's hybrid CGPOP follows.

CAF007 enforces GASNet's handler restrictions: an active-message handler
runs on the AM service path and must not block (no waits, no recv, no
collectives) — it may only do local work and send a short reply.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import (
    BLOCKING_METHODS,
    FUNCTIONS,
    MPI_BLOCKING_METHODS,
    PUT_METHODS,
    FunctionInfo,
    ModuleModel,
    Op,
    is_sync,
    method_name,
    snippet,
)


def _is_mpi_blocking(op: Op, model: ModuleModel) -> bool:
    if op.kind != "call" or op.method not in MPI_BLOCKING_METHODS:
        return False
    if model.tag(op.recv) == "mpi" or op.method in FUNCTIONS:
        return True
    return "COMM_WORLD" in op.recv_text or "MpiWorld" in op.recv_text


def _is_gasnet_blocking(op: Op, model: ModuleModel) -> bool:
    if op.kind != "call" or op.method not in BLOCKING_METHODS:
        return False
    return model.tag(op.recv) == "gasnet" or "GasnetWorld" in op.recv_text


def check_dual_runtime(fn: FunctionInfo, model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    ops = model.ops_for(fn)

    # -- Figure 2: unsynced coarray put, then block inside raw MPI --------------
    pending_put: Op | None = None
    for op in ops:
        # Order matters: a raw-MPI barrier is a *blocking entry into the
        # other runtime*, not a CAF synchronization — test it first.
        if pending_put is not None and _is_mpi_blocking(op, model):
            pass  # fall through to the report below
        elif is_sync(op):
            pending_put = None
            continue
        elif op.kind == "call" and model.tag(op.recv) == "coarray" and op.method in PUT_METHODS:
            if pending_put is None:
                pending_put = op
            continue
        if pending_put is not None and _is_mpi_blocking(op, model):
            guard = " (rank-dependent)" if pending_put.rank_dep else ""
            findings.append(
                Finding(
                    rule="CAF006",
                    path=model.path,
                    line=op.node.lineno,
                    col=op.node.col_offset,
                    func=fn.qualname,
                    message=(
                        f"blocking MPI {op.method}() while the coarray put at "
                        f"line {pending_put.node.lineno}{guard} may still need "
                        f"target-side CAF progress: with AM-based writes every "
                        f"image blocks in a runtime that does not progress the "
                        f"other (paper Fig. 2)"
                    ),
                    related=[("put", pending_put.node.lineno, snippet(pending_put.node))],
                )
            )
            pending_put = None  # one report per put

    # -- both runtimes constructed and blocked on in one function --------------
    gasnet_block: Op | None = None
    mpi_block: Op | None = None
    for op in ops:
        if gasnet_block is None and _is_gasnet_blocking(op, model):
            gasnet_block = op
        if mpi_block is None and _is_mpi_blocking(op, model):
            mpi_block = op
    if gasnet_block is not None and mpi_block is not None:
        later, earlier = (
            (mpi_block, gasnet_block)
            if mpi_block.node.lineno >= gasnet_block.node.lineno
            else (gasnet_block, mpi_block)
        )
        findings.append(
            Finding(
                rule="CAF006",
                path=model.path,
                line=later.node.lineno,
                col=later.node.col_offset,
                func=fn.qualname,
                message=(
                    f"this function blocks in both runtimes ({earlier.method}() "
                    f"at line {earlier.node.lineno}, then {later.method}()): "
                    f"neither GASNet nor MPI progresses the other while blocked "
                    f"(paper Fig. 2)"
                ),
                related=[("first", earlier.node.lineno, snippet(earlier.node))],
            )
        )

    return findings


def check_am_handlers(fn: FunctionInfo, model: ModuleModel) -> list[Finding]:
    if fn.node.name not in model.am_handlers:
        return []
    findings: list[Finding] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return
        if (
            isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) or method_name(node) in FUNCTIONS)
            and method_name(node) in BLOCKING_METHODS
        ):
            findings.append(
                Finding(
                    rule="CAF007",
                    path=model.path,
                    line=node.lineno,
                    col=node.col_offset,
                    func=fn.qualname,
                    message=(
                        f"{method_name(node)}() can block, but "
                        f"'{fn.node.name}' is registered as a GASNet "
                        f"active-message handler: handlers must only do local "
                        f"work and short replies"
                    ),
                )
            )
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in fn.node.body:
        visit(stmt)
    return findings
