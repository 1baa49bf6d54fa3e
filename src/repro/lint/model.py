"""The per-module static model the lint passes consume.

No execution, no imports of the linted code: everything is derived from
the AST. Three ingredients:

* **Classification sets** of method names (collectives, puts, syncs,
  blocking calls), derived from the protocol table
  (:mod:`repro.lint.protocol`) and re-exported here for the passes.
* **Handle tracking**: flow-insensitive tagging of names (and
  ``self.attr`` attributes and list containers) assigned from
  ``allocate_coarray`` / ``allocate_events`` / ``win_allocate*`` /
  ``img.mpi()`` / ``GasnetWorld`` so rules fire only on receivers that
  are actually protocol objects — a file object's ``.write`` never
  trips the put rules.
* **Rank taint**: names derived (transitively) from ``img.rank`` /
  ``this_image()``, used to decide whether a branch condition is
  rank-dependent. ``nranks``/``num_images`` are uniform across images
  and deliberately do *not* taint.

The model is intraprocedural and conservative by design: when the linter
cannot see a fact it stays quiet. Cross-function protocols (a put in one
method completed by an event wait in another) are the dynamic
sanitizer's job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.protocol import (  # noqa: F401  (re-exported for the passes)
    ALLOCATORS,
    ASYNC_METHODS,
    BLOCKING_METHODS,
    COLLECTIVE_METHODS,
    FUNCTIONS,
    MPI_BLOCKING_METHODS,
    PUT_METHODS,
    SYNC_METHODS,
    WINDOW_RMA_METHODS,
)

def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return ""


def snippet(node: ast.AST, limit: int = 48) -> str:
    """``node``'s source, cut to ``limit`` characters: a finding's related
    location."""
    text = _unparse(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def target_key(node: ast.AST) -> str | None:
    """Canonical key for an assignment target / receiver root.

    ``Name`` -> ``"x"``; ``self.attr`` -> ``"self.attr"``; anything else
    (arbitrary attributes, subscripts of expressions) is untracked.
    """
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def receiver_key(call: ast.Call) -> str | None:
    """Tracking key for a method call's receiver, peeling subscripts
    (so ``land[d].write`` resolves to the tracked container ``land``)."""
    if not isinstance(call.func, ast.Attribute):
        return None
    value: ast.AST = call.func.value
    while isinstance(value, ast.Subscript):
        value = value.value
    return target_key(value)


def method_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


@dataclass
class FunctionInfo:
    """One function (or method, or nested def) in the module."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    cls: str | None = None  # enclosing class name, if a method
    _ops: "list[Op] | None" = None  # memoized linear op stream


@dataclass
class ModuleModel:
    path: str
    tree: ast.Module
    #: every node of ``tree`` in ``ast.walk`` order: the module is walked
    #: once, and the module-wide scans iterate this list.
    nodes: list[ast.AST] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    #: tracked handle tags: name/self.attr -> "coarray"|"event"|"window"|"mpi"|"gasnet"
    tags: dict[str, str] = field(default_factory=dict)
    rank_tainted: set[str] = field(default_factory=set)
    #: function names registered as GASNet AM handlers.
    am_handlers: set[str] = field(default_factory=set)
    #: event vars that escape into call arguments (runtime pairs them).
    escaped_events: set[str] = field(default_factory=set)

    def tag(self, key: str | None) -> str | None:
        return self.tags.get(key) if key else None

    def ops_for(self, fn: FunctionInfo) -> "list[Op]":
        """Linearized op stream for a function, computed once and shared
        by every pass that scans program order."""
        if fn._ops is None:
            fn._ops = collect_ops(fn.node, self)
        return fn._ops


def _assignment_pairs(nodes: list[ast.AST]):
    """Yield (target_keys, value) for every assignment-like statement."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            keys = [k for t in node.targets for k in _flatten_targets(t)]
            yield keys, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            key = target_key(node.target)
            yield ([key] if key else []), node.value


def _flatten_targets(t: ast.AST) -> list[str]:
    if isinstance(t, (ast.Tuple, ast.List)):
        out: list[str] = []
        for el in t.elts:
            out.extend(_flatten_targets(el))
        return out
    key = target_key(t)
    return [key] if key else []


@dataclass
class _AssignFacts:
    """Everything the fixpoint needs about one assignment, precomputed
    in a single walk of its value expression."""

    keys: list[str]
    static_tag: str | None  # from allocators / COMM_WORLD / world classes
    alias_key: str | None  # x = y / y[i] / self.y: inherit y's tag
    mentioned: set[str]  # names & self.attrs the value reads (taint prop)
    has_rank: bool  # value literally touches .rank / this_image()


def _value_facts(keys: list[str], value: ast.AST) -> _AssignFacts:
    alias: ast.AST = value
    while isinstance(alias, ast.Subscript):
        alias = alias.value
    alias_key = target_key(alias)

    static_tag: str | None = None
    mentioned: set[str] = set()
    has_rank = False
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            name = method_name(node)
            if static_tag is None and name in ALLOCATORS:
                static_tag = ALLOCATORS[name]
            elif name == "this_image":
                has_rank = True
        elif isinstance(node, ast.Attribute):
            if node.attr == "rank":
                has_rank = True
            elif static_tag is None and node.attr == "COMM_WORLD":
                static_tag = "mpi"
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                mentioned.add(f"self.{node.attr}")
        elif isinstance(node, ast.Name):
            mentioned.add(node.id)
            if static_tag is None and node.id == "MpiWorld":
                static_tag = "mpi"
            elif static_tag is None and node.id == "GasnetWorld":
                static_tag = "gasnet"
    return _AssignFacts(keys, static_tag, alias_key, mentioned, has_rank)


def _mentions_rank(value: ast.AST, tainted: set[str]) -> bool:
    for node in ast.walk(value):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Call) and method_name(node) == "this_image":
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and f"self.{node.attr}" in tainted
        ):
            return True
    return False


def is_rank_dependent(test: ast.AST, model: ModuleModel) -> bool:
    """Does this branch condition observe the image index (transitively)?"""
    return _mentions_rank(test, model.rank_tainted)


def is_rank_literal(test: ast.AST) -> bool:
    """Stricter form: the condition itself mentions ``.rank``/``this_image``.

    Used by the early-return sub-rule of CAF001, where taint would be too
    eager (any value derived from per-image data is tainted)."""
    return _mentions_rank(test, set())


def _collect_functions(model: ModuleModel) -> None:
    def visit(node: ast.AST, prefix: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                model.functions.append(FunctionInfo(child, qual, cls))
                visit(child, f"{qual}.", cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, cls)

    visit(model.tree, "", None)


def _collect_am_handlers(model: ModuleModel) -> None:
    for node in model.nodes:
        if not (isinstance(node, ast.Call) and method_name(node) == "register_handler"):
            continue
        if len(node.args) < 2:
            continue
        fn = node.args[1]
        if isinstance(fn, ast.Name):
            model.am_handlers.add(fn.id)
        elif isinstance(fn, ast.Attribute):
            model.am_handlers.add(fn.attr)


def _collect_escapes(model: ModuleModel) -> None:
    """Event vars passed *into* calls (``dest_event=(ev, 0)``, helper
    functions, async collectives) are paired by code the linter cannot
    see; pairing rules must not fire on them."""
    for node in model.nodes:
        if not isinstance(node, ast.Call):
            continue
        mname = method_name(node)
        recv = receiver_key(node)
        for sub in list(node.args) + [kw.value for kw in node.keywords]:
            for leaf in ast.walk(sub):
                key = target_key(leaf)
                if key and model.tags.get(key) == "event":
                    # the receiver of its own notify/wait is not an escape
                    if not (key == recv and mname in ("notify", "wait", "trywait")):
                        model.escaped_events.add(key)


def build_model(tree: ast.Module, path: str) -> ModuleModel:
    model = ModuleModel(path=path, tree=tree, nodes=list(ast.walk(tree)))
    _collect_functions(model)

    # Fixpoint over assignments: handle tags and rank taint both
    # propagate through aliasing. Facts about each assignment's value are
    # extracted once; the sweeps themselves are cheap set operations.
    facts = [
        _value_facts(keys, value)
        for keys, value in _assignment_pairs(model.nodes)
        if keys
    ]
    for _ in range(4):
        changed = False
        for fact in facts:
            tag = fact.static_tag
            if tag is None and fact.alias_key:
                tag = model.tags.get(fact.alias_key)
            if tag:
                for key in fact.keys:
                    if model.tags.get(key) != tag:
                        model.tags[key] = tag
                        changed = True
            if fact.has_rank or (fact.mentioned & model.rank_tainted):
                for key in fact.keys:
                    if key not in model.rank_tainted:
                        model.rank_tainted.add(key)
                        changed = True
        if not changed:
            break

    _collect_am_handlers(model)
    _collect_escapes(model)
    return model


# -- linearized operation stream -------------------------------------------------------


@dataclass
class Op:
    """One protocol-relevant action in a function, in program order.

    ``kind`` is ``call`` (a method/function call), ``local`` (a touch of
    a tracked coarray's ``.local`` view), ``return``, or the synthetic
    ``finish_enter``/``finish_exit`` boundaries of a ``with finish()``
    block. ``rank_dep`` records whether the op sits under any
    rank-dependent branch.
    """

    kind: str
    node: ast.AST
    method: str = ""
    recv: str | None = None
    recv_text: str = ""
    rank_dep: bool = False
    call: ast.Call | None = None


def is_sync(op: Op) -> bool:
    """Whether ``op`` is a synchronization point: a ``finish`` boundary or
    a call in :data:`SYNC_METHODS`."""
    if op.kind in ("finish_enter", "finish_exit"):
        return True
    return op.kind == "call" and op.method in SYNC_METHODS


def _expr_ops(expr: ast.AST, model: ModuleModel, rank_dep: bool, out: list[Op]) -> None:
    """Emit ops for one expression subtree, children before parents so the
    stream approximates evaluation order (args before the call)."""
    if isinstance(expr, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
        return  # deferred bodies do not execute here
    for child in ast.iter_child_nodes(expr):
        _expr_ops(child, model, rank_dep, out)
    if isinstance(expr, ast.Attribute) and expr.attr == "local":
        recv = target_key(_peel_subscripts(expr.value))
        if model.tag(recv) == "coarray":
            out.append(Op("local", expr, recv=recv, rank_dep=rank_dep))
    elif isinstance(expr, ast.Call):
        name = method_name(expr)
        if name is None:
            return
        recv = receiver_key(expr)
        recv_text = ""
        if isinstance(expr.func, ast.Attribute):
            recv_text = _unparse(expr.func.value)
        out.append(
            Op(
                "call",
                expr,
                method=name,
                recv=recv,
                recv_text=recv_text,
                rank_dep=rank_dep,
                call=expr,
            )
        )


def _peel_subscripts(node: ast.AST) -> ast.AST:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _is_finish_call(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Call) and method_name(expr) == "finish"


def collect_ops(fn: ast.FunctionDef | ast.AsyncFunctionDef, model: ModuleModel) -> list[Op]:
    """Flatten a function body into program-order ops.

    Branch structure is collapsed: ops from every arm appear in source
    order, so a sync in *either* arm counts as a sync for the hazards
    scanned over this stream. That is deliberately conservative (no false
    positives from paths the linter cannot prove are taken); the
    collective-matching pass looks at branch arms separately.
    """
    ops: list[Op] = []

    def walk(stmts: list[ast.stmt], depth: int) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                _expr_ops(stmt.test, model, depth > 0, ops)
                inner = depth + 1 if is_rank_dependent(stmt.test, model) else depth
                walk(stmt.body, inner)
                walk(stmt.orelse, inner)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                finish = any(_is_finish_call(item.context_expr) for item in stmt.items)
                for item in stmt.items:
                    _expr_ops(item.context_expr, model, depth > 0, ops)
                if finish:
                    ops.append(Op("finish_enter", stmt, method="finish", rank_dep=depth > 0))
                walk(stmt.body, depth)
                if finish:
                    ops.append(Op("finish_exit", stmt, method="finish", rank_dep=depth > 0))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                _expr_ops(stmt.iter, model, depth > 0, ops)
                walk(stmt.body, depth)
                walk(stmt.orelse, depth)
            elif isinstance(stmt, ast.While):
                _expr_ops(stmt.test, model, depth > 0, ops)
                walk(stmt.body, depth)
                walk(stmt.orelse, depth)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body, depth)
                for handler in stmt.handlers:
                    walk(handler.body, depth)
                walk(stmt.orelse, depth)
                walk(stmt.finalbody, depth)
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    _expr_ops(stmt.value, model, depth > 0, ops)
                ops.append(Op("return", stmt, rank_dep=depth > 0))
            else:
                for child in ast.iter_child_nodes(stmt):
                    _expr_ops(child, model, depth > 0, ops)

    walk(fn.body, 0)
    return ops
