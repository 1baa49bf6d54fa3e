"""Per-rank abstract interpretation of app modules into symbolic op streams.

The compiler runs each *entry point* (a top-level function whose first
parameter is named ``img`` and which the module itself never calls) once
per rank ``r in 0..P-1`` with ``img.rank`` bound to the concrete ``r``.
Rank-dependent branches (``if img.rank == 0``, XOR partners, ``rank ± 1``
neighbor arithmetic) therefore evaluate *exactly* instead of needing
guarded sub-streams, while loop trip counts are additionally kept
symbolic in ``P`` and the entry's parameters for the perf rule pack.

The result is one :class:`RankStream` per rank: a linear sequence of
:class:`StreamOp` in the ``repro.ir`` obs vocabulary (``caf.coarray_write``,
``caf.event_notify``, ``mpi.coll.allreduce``, ...) annotated with peer
rank, payload bytes, event identity, enclosing-loop trip symbols, and
the flags the Fig. 2 matcher needs (CAF put vs. blocking into raw MPI).

Documented heuristics (each adds a named warning to the stream):

* ``loop-truncated`` — concrete loops longer than ``loop_cap`` run only
  ``loop_cap`` iterations.  Clamping is uniform across ranks, so
  per-iteration notify/wait balance survives, but ``wait(count=n)``
  against ``n`` clamped notifies does not: the matcher skips event
  *accounting* for truncated streams (the Fig. 2 prefix scan remains
  sound).
* ``unresolved-iter`` / ``unresolved-while`` — a data-dependent loop
  body executes once with its ops marked tentative.
* ``assumed-no-break`` — an ``if <unknown>: break/return/raise/continue``
  guard is assumed not taken (CGPOP's convergence break: the recorded
  runs never converge before ``max_iter`` either).
* ``unresolved-branch`` — an unknown two-armed branch runs both arms on
  cloned environments; diverging bindings merge to Unknown and the ops
  are tentative.
* ``mask-half`` — boolean-mask selection keeps half the extent.
* ``steady-state`` — reassigning a known-size array from an unknown-size
  expression keeps the prior extent (RandomAccess's in-flight pool).
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..model import FunctionInfo, ModuleModel
from . import sym as symlib
from .sym import Sym
from .values import (
    UNKNOWN,
    ArrayVal,
    Env,
    FuncVal,
    HandleVal,
    InstanceVal,
    RngVal,
    broadcast_shapes,
    is_int,
    is_num,
    is_unknown,
    itemsize_of,
    promote_itemsize,
)


@dataclass
class StreamOp:
    """One communication/synchronization op emitted by one rank."""

    kind: str  # repro.ir obs-style kind, e.g. "caf.coarray_write"
    method: str  # source-level method name, e.g. "write_async"
    line: int
    col: int
    func: str
    rank: int
    peer: int | None = None  # target (puts/notify) or source (reads/recv)
    nbytes: int | None = None
    nelems: int | None = None
    event: tuple[int, int] | None = None  # (event-array uid, slot)
    count: int = 1  # wait consumption count
    bounded: bool = False  # timed wait / trywait — cannot hang
    tentative: bool = False  # under an unresolved guard
    is_sync: bool = False  # CAF synchronization point (completes CAF traffic)
    is_mpi_block: bool = False  # blocks inside a non-CAF runtime (raw MPI/GASNet)
    is_caf_put: bool = False  # CAF traffic needing target-side AM progress
    loop_trips: tuple[Sym, ...] = ()  # symbolic trips of enclosing loops
    loop_lines: tuple[int, ...] = ()
    note: str | None = None  # op-specific detail (e.g. window memory model)

    @property
    def loop_depth(self) -> int:
        return len(self.loop_trips)

    def trip_product(self) -> Sym:
        out = symlib.ONE
        for t in self.loop_trips:
            out = Sym.op("*", out, t) if out is not symlib.ONE else t
        return out


@dataclass
class RankStream:
    rank: int
    ops: list[StreamOp] = field(default_factory=list)
    warnings: set[str] = field(default_factory=set)
    truncated: bool = False
    aborted: str | None = None

    @property
    def sound_for_accounting(self) -> bool:
        """Event count accounting is only trusted on fully resolved runs."""
        if self.aborted or self.truncated:
            return False
        return not any(
            w.split(":")[0]
            in (
                "unresolved-iter",
                "unresolved-while",
                "spawn",
                "serve",
                "escape",
                "launch-clamped",
            )
            for w in self.warnings
        )


@dataclass
class EntryStreams:
    qualname: str
    path: str
    line: int
    nranks: int
    ranks: list[RankStream]

    @property
    def warnings(self) -> set[str]:
        out: set[str] = set()
        for rs in self.ranks:
            out |= rs.warnings
        return out


@dataclass
class ModuleStreams:
    path: str
    nranks: int
    entries: list[EntryStreams] = field(default_factory=list)


class _BudgetExceeded(Exception):
    pass


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class _RaiseSignal(Exception):
    pass


@dataclass
class ModuleVal:
    name: str  # "numpy", "numpy.random", "numpy.fft", "numpy.linalg", "math"


@dataclass
class ModuleFn:
    module: str
    name: str


@dataclass
class DtypeVal:
    name: str


@dataclass
class BuiltinVal:
    name: str


@dataclass
class MethodVal:
    obj: Any
    name: str


@dataclass
class ClassVal:
    node: ast.ClassDef
    closure: Env


_NUMPY_ALIASES = {"np", "numpy"}
_BUILTINS = {
    "int",
    "float",
    "bool",
    "str",
    "len",
    "max",
    "min",
    "abs",
    "sum",
    "range",
    "enumerate",
    "zip",
    "sorted",
    "reversed",
    "list",
    "tuple",
    "dict",
    "set",
    "print",
    "isinstance",
    "round",
    "divmod",
    "pow",
    "any",
    "all",
}

_BINOP_FNS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
    ast.BitXor: operator.xor,
    ast.BitAnd: operator.and_,
    ast.BitOr: operator.or_,
    ast.MatMult: operator.matmul,
}

_CMP_FNS = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}

#: image-handle collectives → obs kind suffix (all CAF sync points).
_IMG_COLLECTIVES = {
    "sync_all": "barrier",
    "barrier": "barrier",
    "team_broadcast": "broadcast",
    "team_reduce": "reduce",
    "team_allreduce": "allreduce",
    "team_alltoall": "alltoall",
    "team_allgather": "allgather",
}

#: raw-MPI comm collectives (every one blocks inside the MPI runtime).
_COMM_COLLECTIVES = {
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "alltoall",
    "allgather",
}

#: window RMA methods: method → (kind suffix, index of target-rank arg).
_WIN_RMA = {
    "put": ("put", 1),
    "rput": ("rput", 1),
    "get": ("get", 1),
    "rget": ("rget", 1),
    "accumulate": ("accumulate", 1),
    "raccumulate": ("accumulate", 1),
    "get_accumulate": ("get_accumulate", 2),
    "fetch_and_op": ("fetch_and_op", 2),
    "compare_and_swap": ("compare_and_swap", 3),
}

_GASNET_BLOCKING = {"barrier", "wait_syncnbi", "put_blocking", "get_blocking"}

_MAX_CONCRETE_ELEMS = 1 << 16
_MAX_CALL_DEPTH = 24


def _is_main_guard(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def entry_functions(model: ModuleModel) -> list[FunctionInfo]:
    """Top-level functions with a first parameter named ``img`` that the
    module itself never calls — the per-image mains the cluster spawns.
    Calls under ``if __name__ == "__main__"`` don't count: that guard is
    exactly where a module launches its own entry point."""
    called: set[str] = set()
    roots = [stmt for stmt in model.tree.body if not _is_main_guard(stmt)]
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
    out = []
    for fn in model.functions:
        if fn.cls is not None or fn.qualname in called:
            continue
        args = fn.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if names and names[0] == "img":
            out.append(fn)
    return out


#: Hinted launch sizes above this compile at the default probe count
#: instead (with a ``launch-clamped`` warning that disables accounting).
_MAX_HINT_NRANKS = 16


def launch_hints(model: ModuleModel) -> dict[str, int]:
    """Image counts the module itself launches entries at.

    A call shaped ``anything(fn, N, ...)`` with ``N`` a positive integer
    literal (the ``run_caf(kernel, nimages, ...)`` idiom) pins ``fn`` to
    ``N`` images: a 2-image ring demo compiled at the probe default of 4
    would report recv/event imbalances that can never happen at its real
    size.  First hint wins when a module launches at several sizes.
    """
    hints: dict[str, int] = {}
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        first, second = node.args[0], node.args[1]
        if (
            isinstance(first, ast.Name)
            and isinstance(second, ast.Constant)
            and type(second.value) is int
            and second.value > 0
        ):
            hints.setdefault(first.id, second.value)
    return hints


class StreamCompiler:
    """Compile one module's entry points into per-rank symbolic op streams."""

    def __init__(
        self,
        model: ModuleModel,
        *,
        nranks: int = 4,
        loop_cap: int | None = 8,
        step_budget: int = 20_000,
        bindings: dict[str, Any] | None = None,
    ):
        self.model = model
        self.nranks = nranks
        self.loop_cap = loop_cap
        self.step_budget = step_budget
        self.bindings = bindings or {}
        self.module_env = Env()
        self._class_registry: dict[str, ClassVal] = {}
        self._init_module_env()

    # -- public API -----------------------------------------------------

    def compile(self) -> ModuleStreams:
        out = ModuleStreams(path=str(self.model.path), nranks=self.nranks)
        hints = launch_hints(self.model)
        for fn in entry_functions(self.model):
            out.entries.append(self.compile_entry(fn, nranks=hints.get(fn.qualname)))
        return out

    def compile_entry(
        self, fn: FunctionInfo, nranks: int | None = None
    ) -> EntryStreams:
        clamped = nranks is not None and nranks > _MAX_HINT_NRANKS
        use = self.nranks if nranks is None or clamped else nranks
        saved, self.nranks = self.nranks, use
        try:
            ranks = []
            for r in range(use):
                run = _RankRun(self, rank=r)
                ranks.append(run.run_entry(fn))
        finally:
            self.nranks = saved
        if clamped:
            for rs in ranks:
                rs.warnings.add(f"launch-clamped:{nranks}->{use}")
        return EntryStreams(
            qualname=fn.qualname,
            path=str(self.model.path),
            line=fn.node.lineno,
            nranks=use,
            ranks=ranks,
        )

    # -- module environment ---------------------------------------------

    def _init_module_env(self) -> None:
        env = self.module_env
        env.set("__name__", "__lint__")
        for stmt in self.model.tree.body:
            try:
                self._exec_top(stmt, env)
            except Exception:
                continue

    def _exec_top(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env.set(stmt.name, FuncVal(stmt, stmt.name, closure=env))
        elif isinstance(stmt, ast.ClassDef):
            cv = ClassVal(stmt, env)
            self._class_registry[stmt.name] = cv
            env.set(stmt.name, cv)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            pass  # names resolve lazily (np/math specials; others Unknown)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            # Best-effort constant folding of module-level config values.
            run = _RankRun(self, rank=0, silent=True)
            run.env = env
            try:
                run.exec_stmt(stmt, env)
            except Exception:
                pass
        # Skip `if __name__ == "__main__"` and other module-level control flow.


class _RankRun:
    """One rank's abstract execution of one entry point."""

    def __init__(self, compiler: StreamCompiler, rank: int, silent: bool = False):
        self.c = compiler
        self.rank = rank
        self.nranks = compiler.nranks
        self.silent = silent
        self.stream = RankStream(rank=rank)
        self.steps = 0
        self.uid = itertools.count()
        self.tentative = 0
        self.loop_syms: list[Sym] = []
        self.loop_lines: list[int] = []
        self.func_stack: list[str] = []
        self.node_stack: list[ast.AST] = []
        self.sym_env: dict[str, Sym] = {}
        self._img: HandleVal | None = None
        self._mpi: HandleVal | None = None
        self._comm: HandleVal | None = None
        self._gasnet: HandleVal | None = None
        self._cluster: HandleVal | None = None
        #: Modeled Cluster.shared() singletons, keyed by the (hashable)
        #: shared key so repeated lookups alias one value.
        self._cluster_shared: dict[Any, Any] = {}
        self.env: Env = compiler.module_env

    # -- entry ----------------------------------------------------------

    def run_entry(self, fn: FunctionInfo) -> RankStream:
        img = HandleVal("image", uid=next(self.uid), meta={"rank": self.rank})
        self._img = img
        env = self.c.module_env.child()
        args = fn.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        kwonly = [a.arg for a in args.kwonlyargs]
        env.set(names[0], img)
        self.sym_env = {}
        for name in names[1:] + kwonly:
            if name in self.c.bindings:
                value = self.c.bindings[name]
            else:
                default = self._default_for(fn.node, name)
                value = default
            env.set(name, value)
            self.sym_env[name] = Sym.var(name)
        self.func_stack = [fn.qualname]
        try:
            self.exec_stmts(fn.node.body, env)
        except _ReturnSignal:
            pass
        except _RaiseSignal:
            self.warn("raise")
        except _BudgetExceeded:
            self.stream.aborted = "step-budget"
            self.warn("step-budget")
        except RecursionError:
            self.stream.aborted = "recursion"
            self.warn("recursion")
        except Exception as exc:  # never let interpreter bugs break lint
            self.stream.aborted = f"internal:{type(exc).__name__}"
            self.warn(f"internal:{type(exc).__name__}")
        return self.stream

    def _default_for(self, node: ast.FunctionDef, name: str) -> Any:
        args = node.args
        positional = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        defaults = list(args.defaults)
        if name in positional and defaults:
            offset = len(positional) - len(defaults)
            idx = positional.index(name)
            if idx >= offset:
                try:
                    return self.eval(defaults[idx - offset], self.c.module_env)
                except Exception:
                    return UNKNOWN
        for kw, default in zip(args.kwonlyargs, args.kw_defaults):
            if kw.arg == name and default is not None:
                try:
                    return self.eval(default, self.c.module_env)
                except Exception:
                    return UNKNOWN
        return UNKNOWN

    # -- bookkeeping ----------------------------------------------------

    def warn(self, tag: str) -> None:
        if not self.silent:
            self.stream.warnings.add(tag)

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.c.step_budget:
            raise _BudgetExceeded()

    @property
    def current_func(self) -> str:
        return self.func_stack[-1] if self.func_stack else "<module>"

    def emit(
        self,
        *,
        kind: str,
        method: str,
        node: ast.AST,
        peer: Any = None,
        nbytes: Any = None,
        nelems: Any = None,
        event: tuple[int, int] | None = None,
        count: Any = 1,
        bounded: bool = False,
        is_sync: bool = False,
        is_mpi_block: bool = False,
        is_caf_put: bool = False,
        note: str | None = None,
    ) -> None:
        if self.silent:
            return
        self.stream.ops.append(
            StreamOp(
                kind=kind,
                method=method,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                func=self.current_func,
                rank=self.rank,
                peer=int(peer) if is_int(peer) else None,
                nbytes=int(nbytes) if is_int(nbytes) else None,
                nelems=int(nelems) if is_int(nelems) else None,
                event=event,
                count=int(count) if is_int(count) else 1,
                bounded=bounded,
                tentative=self.tentative > 0,
                is_sync=is_sync,
                is_mpi_block=is_mpi_block,
                is_caf_put=is_caf_put,
                loop_trips=tuple(self.loop_syms),
                loop_lines=tuple(self.loop_lines),
                note=note,
            )
        )

    def sym_of(self, node: ast.AST) -> Sym:
        return symlib.from_ast(node, self.sym_env)

    # -- statements -----------------------------------------------------

    def exec_stmts(self, stmts: list[ast.stmt], env: Env) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: Env) -> None:
        self.tick()
        method = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if method is not None:
            method(stmt, env)
        # Unknown statement kinds (Global, Nonlocal, Import, ...) are no-ops.

    def _stmt_Expr(self, stmt: ast.Expr, env: Env) -> None:
        self.eval(stmt.value, env)

    def _stmt_Assign(self, stmt: ast.Assign, env: Env) -> None:
        value = self.eval(stmt.value, env)
        for target in stmt.targets:
            self.assign(target, value, env, value_node=stmt.value)

    def _stmt_AnnAssign(self, stmt: ast.AnnAssign, env: Env) -> None:
        if stmt.value is not None:
            value = self.eval(stmt.value, env)
            self.assign(stmt.target, value, env, value_node=stmt.value)

    def _stmt_AugAssign(self, stmt: ast.AugAssign, env: Env) -> None:
        fn = _BINOP_FNS.get(type(stmt.op))
        load = ast.copy_location(
            {
                ast.Name: lambda t: ast.Name(id=t.id, ctx=ast.Load()),
                ast.Attribute: lambda t: ast.Attribute(
                    value=t.value, attr=t.attr, ctx=ast.Load()
                ),
                ast.Subscript: lambda t: ast.Subscript(
                    value=t.value, slice=t.slice, ctx=ast.Load()
                ),
            }[type(stmt.target)](stmt.target),
            stmt.target,
        )
        old = self.eval(load, env)
        new = self.eval(stmt.value, env)
        result = self.binop(fn, old, new) if fn else UNKNOWN
        self.assign(stmt.target, result, env, value_node=stmt)

    def _stmt_FunctionDef(self, stmt: ast.FunctionDef, env: Env) -> None:
        env.set(stmt.name, FuncVal(stmt, stmt.name, closure=env))

    _stmt_AsyncFunctionDef = _stmt_FunctionDef

    def _stmt_ClassDef(self, stmt: ast.ClassDef, env: Env) -> None:
        cv = ClassVal(stmt, env)
        self.c._class_registry.setdefault(stmt.name, cv)
        env.set(stmt.name, cv)

    def _stmt_Return(self, stmt: ast.Return, env: Env) -> None:
        value = self.eval(stmt.value, env) if stmt.value is not None else None
        raise _ReturnSignal(value)

    def _stmt_Break(self, stmt: ast.Break, env: Env) -> None:
        raise _BreakSignal()

    def _stmt_Continue(self, stmt: ast.Continue, env: Env) -> None:
        raise _ContinueSignal()

    def _stmt_Raise(self, stmt: ast.Raise, env: Env) -> None:
        raise _RaiseSignal()

    def _stmt_Assert(self, stmt: ast.Assert, env: Env) -> None:
        self.eval(stmt.test, env)

    def _stmt_Delete(self, stmt: ast.Delete, env: Env) -> None:
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env.vars.pop(target.id, None)

    def _stmt_Pass(self, stmt: ast.Pass, env: Env) -> None:
        pass

    def _stmt_If(self, stmt: ast.If, env: Env) -> None:
        cond = self.truthy(self.eval(stmt.test, env))
        if cond is True:
            self.exec_stmts(stmt.body, env)
            return
        if cond is False:
            self.exec_stmts(stmt.orelse, env)
            return
        # Unknown condition. A guard whose arm only escapes control flow
        # (break / continue / return / raise) is assumed not taken.
        if self._escape_only(stmt.body) and not stmt.orelse:
            self.warn("assumed-no-break")
            return
        if stmt.orelse and self._escape_only(stmt.orelse) and not self._escape_only(
            stmt.body
        ):
            self.warn("assumed-no-break")
            self.exec_stmts(stmt.body, env)
            return
        self._both_arms(stmt.body, stmt.orelse, env)

    @staticmethod
    def _escape_only(body: list[ast.stmt]) -> bool:
        return len(body) == 1 and isinstance(
            body[0], (ast.Break, ast.Continue, ast.Return, ast.Raise)
        )

    def _both_arms(self, body: list[ast.stmt], orelse: list[ast.stmt], env: Env) -> None:
        self.warn("unresolved-branch")
        frames = self._env_frames(env)
        snapshot = [dict(f.vars) for f in frames]
        self.tentative += 1
        try:
            then_state = self._run_arm(body, env, frames, snapshot)
            else_state = self._run_arm(orelse, env, frames, snapshot)
        finally:
            self.tentative -= 1
        # Merge: bindings equal in both arms survive; divergent → Unknown.
        for frame, snap, tstate, estate in zip(frames, snapshot, then_state, else_state):
            merged = dict(snap)
            keys = set(tstate) | set(estate)
            for key in keys:
                tv = tstate.get(key, snap.get(key))
                ev = estate.get(key, snap.get(key))
                if tv is ev or self._same_value(tv, ev):
                    merged[key] = tv
                else:
                    merged[key] = UNKNOWN
            frame.vars.clear()
            frame.vars.update(merged)

    def _run_arm(
        self,
        body: list[ast.stmt],
        env: Env,
        frames: list[Env],
        snapshot: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        for frame, snap in zip(frames, snapshot):
            frame.vars.clear()
            frame.vars.update(snap)
        try:
            self.exec_stmts(body, env)
        except (_BreakSignal, _ContinueSignal, _ReturnSignal, _RaiseSignal):
            self.warn("assumed-no-break")
        return [dict(f.vars) for f in frames]

    @staticmethod
    def _env_frames(env: Env) -> list[Env]:
        frames = []
        cur: Env | None = env
        while cur is not None:
            frames.append(cur)
            cur = cur.parent
        return frames

    @staticmethod
    def _same_value(a: Any, b: Any) -> bool:
        if is_num(a) and is_num(b):
            return bool(a == b)
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        if a is None and b is None:
            return True
        return a is b

    def _stmt_While(self, stmt: ast.While, env: Env) -> None:
        cap = self.c.loop_cap if self.c.loop_cap is not None else 4096
        trip_sym = symlib.UNKNOWN
        self.loop_syms.append(trip_sym)
        self.loop_lines.append(stmt.lineno)
        try:
            iters = 0
            while True:
                cond = self.truthy(self.eval(stmt.test, env))
                if cond is False:
                    break
                if cond is None:
                    self.warn("unresolved-while")
                    self.tentative += 1
                    try:
                        self.exec_stmts(stmt.body, env)
                    except _BreakSignal:
                        pass
                    except _ContinueSignal:
                        pass
                    finally:
                        self.tentative -= 1
                    break
                try:
                    self.exec_stmts(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                iters += 1
                if iters >= cap:
                    self.warn("loop-truncated")
                    self.stream.truncated = True
                    break
        finally:
            self.loop_syms.pop()
            self.loop_lines.pop()

    def _stmt_For(self, stmt: ast.For, env: Env) -> None:
        trip_sym = symlib.UNKNOWN
        if isinstance(stmt.iter, ast.Call):
            trip_sym = symlib.trip_from_range(stmt.iter, self.sym_env)
        items = self.concrete_iter(self.eval(stmt.iter, env))
        self.loop_syms.append(trip_sym)
        self.loop_lines.append(stmt.lineno)
        try:
            if items is None:
                self.warn("unresolved-iter")
                self.tentative += 1
                try:
                    self.assign(stmt.target, UNKNOWN, env)
                    self.exec_stmts(stmt.body, env)
                except (_BreakSignal, _ContinueSignal):
                    pass
                finally:
                    self.tentative -= 1
                return
            cap = self.c.loop_cap
            if cap is not None and len(items) > cap:
                items = items[:cap]
                self.warn("loop-truncated")
                self.stream.truncated = True
            broke = False
            for item in items:
                self.assign(stmt.target, item, env)
                try:
                    self.exec_stmts(stmt.body, env)
                except _BreakSignal:
                    broke = True
                    break
                except _ContinueSignal:
                    continue
            if not broke and stmt.orelse:
                self.exec_stmts(stmt.orelse, env)
        finally:
            self.loop_syms.pop()
            self.loop_lines.pop()

    def _stmt_Try(self, stmt: ast.Try, env: Env) -> None:
        try:
            self.exec_stmts(stmt.body, env)
        except _RaiseSignal:
            if stmt.handlers:
                handler = stmt.handlers[0]
                if handler.name:
                    env.set(handler.name, UNKNOWN)
                self.exec_stmts(handler.body, env)
            else:
                raise
        else:
            self.exec_stmts(stmt.orelse, env)
        finally:
            self.exec_stmts(stmt.finalbody, env)

    def _stmt_With(self, stmt: ast.With, env: Env) -> None:
        finishes = []
        for item in stmt.items:
            ctx = self.eval(item.context_expr, env)
            if isinstance(ctx, HandleVal) and ctx.kind == "finish":
                finishes.append((ctx, item.context_expr))
                self.emit(
                    kind="caf.finish",
                    method="finish_enter",
                    node=item.context_expr,
                    is_sync=True,
                )
            if item.optional_vars is not None:
                self.assign(item.optional_vars, ctx, env)
        try:
            self.exec_stmts(stmt.body, env)
        finally:
            for _ctx, node in reversed(finishes):
                self.emit(
                    kind="caf.finish", method="finish_exit", node=node, is_sync=True
                )

    # -- assignment -----------------------------------------------------

    def assign(
        self, target: ast.AST, value: Any, env: Env, value_node: ast.AST | None = None
    ) -> None:
        if isinstance(target, ast.Name):
            self._assign_name(target.id, value, env, value_node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            values = self.concrete_iter(value)
            starred = [i for i, e in enumerate(elts) if isinstance(e, ast.Starred)]
            if values is not None and not starred and len(values) == len(elts):
                for elt, val in zip(elts, values):
                    self.assign(elt, val, env)
            else:
                for elt in elts:
                    inner = elt.value if isinstance(elt, ast.Starred) else elt
                    self.assign(inner, UNKNOWN, env)
        elif isinstance(target, ast.Attribute):
            obj = self.eval(target.value, env)
            if isinstance(obj, InstanceVal):
                obj.attrs[target.attr] = value
        elif isinstance(target, ast.Subscript):
            obj = self.eval(target.value, env)
            key = self.eval_index(target.slice, env)
            if isinstance(obj, dict) and not is_unknown(key):
                try:
                    obj[key] = value
                except TypeError:
                    pass
            elif isinstance(obj, list) and is_int(key) and -len(obj) <= key < len(obj):
                obj[int(key)] = value
            # ArrayVal element stores don't change shape — no-op.

    def _assign_name(
        self, name: str, value: Any, env: Env, value_node: ast.AST | None
    ) -> None:
        old = env.get(name)
        if (
            isinstance(value, ArrayVal)
            and not value.known_shape
            and isinstance(old, ArrayVal)
            and old.known_shape
            and len(old.shape) == len(value.shape)
        ):
            # Steady-state: a known-extent buffer reassigned from a
            # data-dependent expression keeps its prior extent.
            self.warn("steady-state")
            value = ArrayVal(old.shape, value.itemsize, None)
        env.set(name, value)
        if value_node is not None and is_num(value):
            sym = self.sym_of(value_node)
            if sym.kind != "unknown":
                self.sym_env[name] = sym
            elif is_num(value):
                self.sym_env[name] = Sym.const(value)
        elif name in self.sym_env and value_node is not None:
            del self.sym_env[name]

    # -- expression evaluation ------------------------------------------

    def eval(self, node: ast.AST, env: Env) -> Any:
        self.tick()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            return UNKNOWN
        return method(node, env)

    def _eval_Constant(self, node: ast.Constant, env: Env) -> Any:
        return node.value

    def _eval_Name(self, node: ast.Name, env: Env) -> Any:
        name = node.id
        if env.has(name):
            return env.get(name)
        if name in _NUMPY_ALIASES:
            return ModuleVal("numpy")
        if name == "math":
            return ModuleVal("math")
        if name in _BUILTINS:
            return BuiltinVal(name)
        if name in ("MpiWorld",):
            return self._mpi_world()
        if name in ("GasnetWorld",):
            return self._gasnet_world()
        return UNKNOWN

    def _eval_Attribute(self, node: ast.Attribute, env: Env) -> Any:
        obj = self.eval(node.value, env)
        return self.get_attr(obj, node.attr)

    def _eval_BinOp(self, node: ast.BinOp, env: Env) -> Any:
        fn = _BINOP_FNS.get(type(node.op))
        if fn is None:
            return UNKNOWN
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        return self.binop(fn, left, right)

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Env) -> Any:
        value = self.eval(node.operand, env)
        if isinstance(node.op, ast.Not):
            t = self.truthy(value)
            return UNKNOWN if t is None else (not t)
        if is_unknown(value):
            return UNKNOWN
        if isinstance(node.op, ast.USub):
            if is_num(value):
                return -value
            if isinstance(value, ArrayVal):
                return value.like()
            return UNKNOWN
        if isinstance(node.op, ast.UAdd):
            return value
        if isinstance(node.op, ast.Invert):
            if isinstance(value, ArrayVal):
                return ArrayVal(value.shape, value.itemsize, None, mask=value.mask)
            if is_int(value):
                return ~int(value)
        return UNKNOWN

    def _eval_BoolOp(self, node: ast.BoolOp, env: Env) -> Any:
        is_and = isinstance(node.op, ast.And)
        last: Any = UNKNOWN
        for value_node in node.values:
            value = self.eval(value_node, env)
            t = self.truthy(value)
            if t is None:
                return UNKNOWN
            if is_and and not t:
                return value
            if not is_and and t:
                return value
            last = value
        return last

    def _eval_Compare(self, node: ast.Compare, env: Env) -> Any:
        left = self.eval(node.left, env)
        result: Any = True
        for op, comp_node in zip(node.ops, node.comparators):
            right = self.eval(comp_node, env)
            one = self._compare_one(op, left, right)
            if isinstance(one, ArrayVal):
                return one
            if one is None:
                result = UNKNOWN
            elif result is not UNKNOWN:
                result = result and one
            left = right
        return result

    def _compare_one(self, op: ast.cmpop, left: Any, right: Any) -> Any:
        if isinstance(op, ast.Is):
            return left is right if (left is None or right is None) else None
        if isinstance(op, ast.IsNot):
            return left is not right if (left is None or right is None) else None
        if isinstance(op, (ast.In, ast.NotIn)):
            if isinstance(right, (list, tuple, dict, set)) and not is_unknown(left):
                try:
                    found = left in right
                except TypeError:
                    return None
                return found if isinstance(op, ast.In) else not found
            return None
        if isinstance(left, ArrayVal) or isinstance(right, ArrayVal):
            shape_l = left.shape if isinstance(left, ArrayVal) else ()
            shape_r = right.shape if isinstance(right, ArrayVal) else ()
            return ArrayVal(broadcast_shapes(shape_l, shape_r), 1, None, mask=True)
        if is_unknown(left) or is_unknown(right):
            return None
        fn = _CMP_FNS.get(type(op))
        if fn is None:
            return None
        try:
            return bool(fn(left, right))
        except TypeError:
            return None

    def _eval_Call(self, node: ast.Call, env: Env) -> Any:
        func = self.eval(node.func, env)
        args: list[Any] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                spread = self.concrete_iter(self.eval(arg.value, env))
                if spread is None:
                    args.append(UNKNOWN)
                else:
                    args.extend(spread)
            else:
                args.append(self.eval(arg, env))
        kwargs: dict[str, Any] = {}
        for kw in node.keywords:
            if kw.arg is None:
                value = self.eval(kw.value, env)
                if isinstance(value, dict):
                    kwargs.update({k: v for k, v in value.items() if isinstance(k, str)})
            else:
                kwargs[kw.arg] = self.eval(kw.value, env)
        return self.call(func, args, kwargs, node)

    def _eval_Tuple(self, node: ast.Tuple, env: Env) -> Any:
        return tuple(self.eval(e, env) for e in node.elts)

    def _eval_List(self, node: ast.List, env: Env) -> Any:
        return [self.eval(e, env) for e in node.elts]

    def _eval_Set(self, node: ast.Set, env: Env) -> Any:
        out = set()
        for e in node.elts:
            v = self.eval(e, env)
            try:
                out.add(v)
            except TypeError:
                return UNKNOWN
        return out

    def _eval_Dict(self, node: ast.Dict, env: Env) -> Any:
        out: dict[Any, Any] = {}
        for key_node, value_node in zip(node.keys, node.values):
            if key_node is None:
                spread = self.eval(value_node, env)
                if isinstance(spread, dict):
                    out.update(spread)
                continue
            key = self.eval(key_node, env)
            if is_unknown(key):
                return UNKNOWN
            try:
                out[key] = self.eval(value_node, env)
            except TypeError:
                return UNKNOWN
        return out

    def _eval_Subscript(self, node: ast.Subscript, env: Env) -> Any:
        obj = self.eval(node.value, env)
        key = self.eval_index(node.slice, env)
        return self.getitem(obj, key)

    def _eval_Slice(self, node: ast.Slice, env: Env) -> Any:
        def part(sub: ast.AST | None) -> Any:
            return None if sub is None else self.eval(sub, env)

        return slice(part(node.lower), part(node.upper), part(node.step))

    def _eval_IfExp(self, node: ast.IfExp, env: Env) -> Any:
        cond = self.truthy(self.eval(node.test, env))
        if cond is True:
            return self.eval(node.body, env)
        if cond is False:
            return self.eval(node.orelse, env)
        a = self.eval(node.body, env)
        b = self.eval(node.orelse, env)
        return a if self._same_value(a, b) else UNKNOWN

    def _eval_Lambda(self, node: ast.Lambda, env: Env) -> Any:
        wrapper = ast.FunctionDef(
            name="<lambda>",
            args=node.args,
            body=[ast.Return(value=node.body)],
            decorator_list=[],
        )
        ast.copy_location(wrapper, node)
        ast.fix_missing_locations(wrapper)
        return FuncVal(wrapper, "<lambda>", closure=env)

    def _eval_JoinedStr(self, node: ast.JoinedStr, env: Env) -> Any:
        return "?"

    def _eval_Starred(self, node: ast.Starred, env: Env) -> Any:
        return self.eval(node.value, env)

    def _eval_ListComp(self, node: ast.ListComp, env: Env) -> Any:
        return self._comprehension(node, env, kind="list")

    def _eval_SetComp(self, node: ast.SetComp, env: Env) -> Any:
        out = self._comprehension(node, env, kind="list")
        if is_unknown(out):
            return UNKNOWN
        try:
            return set(out)
        except TypeError:
            return UNKNOWN

    def _eval_GeneratorExp(self, node: ast.GeneratorExp, env: Env) -> Any:
        return self._comprehension(node, env, kind="list")

    def _eval_DictComp(self, node: ast.DictComp, env: Env) -> Any:
        return self._comprehension(node, env, kind="dict")

    def _comprehension(self, node: Any, env: Env, kind: str) -> Any:
        scope = env.child()
        out_list: list[Any] = []
        out_dict: dict[Any, Any] = {}

        def rec(gen_idx: int) -> bool:
            if gen_idx == len(node.generators):
                if kind == "dict":
                    key = self.eval(node.key, scope)
                    if is_unknown(key):
                        return False
                    try:
                        out_dict[key] = self.eval(node.value, scope)
                    except TypeError:
                        return False
                else:
                    out_list.append(self.eval(node.elt, scope))
                return True
            gen = node.generators[gen_idx]
            items = self.concrete_iter(self.eval(gen.iter, scope))
            if items is None:
                return False
            cap = self.c.loop_cap
            if cap is not None and len(items) > 4 * cap:
                self.warn("loop-truncated")
                self.stream.truncated = True
                items = items[: 4 * cap]
            for item in items:
                self.assign(gen.target, item, scope)
                keep = True
                for cond in gen.ifs:
                    t = self.truthy(self.eval(cond, scope))
                    if t is None:
                        return False
                    if not t:
                        keep = False
                        break
                if keep and not rec(gen_idx + 1):
                    return False
            return True

        ok = rec(0)
        if not ok:
            return UNKNOWN
        return out_dict if kind == "dict" else out_list

    # -- operators ------------------------------------------------------

    def binop(self, fn: Any, left: Any, right: Any) -> Any:
        if isinstance(left, ArrayVal) or isinstance(right, ArrayVal):
            return self._array_binop(fn, left, right)
        if is_unknown(left) or is_unknown(right):
            return UNKNOWN
        if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
            if fn is operator.add and type(left) is type(right):
                return fn(left, right)
        if is_num(left) and is_num(right):
            try:
                return fn(left, right)
            except (ZeroDivisionError, ValueError, OverflowError, TypeError):
                return UNKNOWN
        if isinstance(left, str) and isinstance(right, str) and fn is operator.add:
            return left + right
        if isinstance(left, (list, tuple)) and is_int(right) and fn is operator.mul:
            return left * int(right)
        return UNKNOWN

    def _array_binop(self, fn: Any, left: Any, right: Any) -> Any:
        la = left if isinstance(left, ArrayVal) else None
        ra = right if isinstance(right, ArrayVal) else None
        if (
            la is not None
            and ra is not None
            and la.data is not None
            and ra.data is not None
        ):
            try:
                data = fn(la.data, ra.data)
                return ArrayVal(data.shape, data.dtype.itemsize, data)
            except Exception:
                pass
        if la is not None and ra is None and la.data is not None and is_num(right):
            try:
                data = fn(la.data, right)
                return ArrayVal(data.shape, data.dtype.itemsize, data)
            except Exception:
                pass
        if ra is not None and la is None and ra.data is not None and is_num(left):
            try:
                data = fn(left, ra.data)
                return ArrayVal(data.shape, data.dtype.itemsize, data)
            except Exception:
                pass
        shape_l = la.shape if la is not None else ()
        shape_r = ra.shape if ra is not None else ()
        shape = broadcast_shapes(shape_l, shape_r)
        itemsize = promote_itemsize(left, right)
        mask = bool((la is not None and la.mask) or (ra is not None and ra.mask))
        if fn in (operator.and_, operator.or_, operator.xor) and mask:
            return ArrayVal(shape, 1, None, mask=True)
        return ArrayVal(shape, itemsize, None, mask=mask)

    def truthy(self, value: Any) -> bool | None:
        if is_unknown(value) or isinstance(value, ArrayVal):
            return None
        if isinstance(
            value, (HandleVal, InstanceVal, FuncVal, ClassVal, ModuleVal, RngVal)
        ):
            return True
        try:
            return bool(value)
        except Exception:
            return None

    # -- attribute access -----------------------------------------------

    def get_attr(self, obj: Any, attr: str) -> Any:
        if is_unknown(obj):
            return UNKNOWN
        if isinstance(obj, ModuleVal):
            return self._module_attr(obj, attr)
        if isinstance(obj, ArrayVal):
            return self._array_attr(obj, attr)
        if isinstance(obj, HandleVal):
            return self._handle_attr(obj, attr)
        if isinstance(obj, InstanceVal):
            if attr in obj.attrs:
                return obj.attrs[attr]
            cv = self.c._class_registry.get(obj.cls_name)
            if cv is not None:
                fn = self._class_method(cv, attr)
                if fn is not None:
                    return FuncVal(
                        fn, f"{obj.cls_name}.{attr}", closure=cv.closure, self_val=obj
                    )
            return UNKNOWN
        if isinstance(obj, (RngVal, dict, list, tuple, set, str)):
            return MethodVal(obj, attr)
        if isinstance(obj, ClassVal):
            fn = self._class_method(obj, attr)
            if fn is not None:
                return FuncVal(fn, f"{obj.node.name}.{attr}", closure=obj.closure)
            return UNKNOWN
        return UNKNOWN

    @staticmethod
    def _class_method(cv: ClassVal, name: str) -> ast.FunctionDef | None:
        for stmt in cv.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == name:
                    return stmt
        return None

    def _module_attr(self, mod: ModuleVal, attr: str) -> Any:
        if mod.name == "numpy":
            if attr in ("random", "fft", "linalg"):
                return ModuleVal(f"numpy.{attr}")
            if attr == "pi":
                return math.pi
            if attr == "e":
                return math.e
            if attr == "newaxis":
                return None
            if attr in ("inf", "nan"):
                return math.inf if attr == "inf" else math.nan
            if attr in ("float64", "float32", "int64", "int32", "uint64", "uint32",
                        "int8", "uint8", "bool_", "complex128", "complex64", "intp"):
                return DtypeVal(attr)
            return ModuleFn("numpy", attr)
        if mod.name == "math":
            if attr == "pi":
                return math.pi
            if attr == "e":
                return math.e
            return ModuleFn("math", attr)
        return ModuleFn(mod.name, attr)

    def _array_attr(self, arr: ArrayVal, attr: str) -> Any:
        if attr == "T":
            return ArrayVal(tuple(reversed(arr.shape)), arr.itemsize,
                            arr.data.T if arr.data is not None else None, arr.mask)
        if attr == "size":
            return arr.size
        if attr == "nbytes":
            return arr.nbytes
        if attr == "shape":
            return tuple(d if is_int(d) else UNKNOWN for d in arr.shape)
        if attr == "ndim":
            return len(arr.shape)
        if attr == "itemsize":
            return arr.itemsize
        if attr in ("real", "imag"):
            return ArrayVal(arr.shape, max(arr.itemsize // 2, 1) if arr.itemsize in (8, 16) else arr.itemsize, None)
        if attr == "dtype":
            return UNKNOWN
        return MethodVal(arr, attr)

    def _handle_attr(self, handle: HandleVal, attr: str) -> Any:
        if handle.kind == "image":
            if attr == "rank":
                return self.rank
            if attr == "nranks":
                return self.nranks
            if attr == "mpi":
                return MethodVal(handle, "mpi")
            if attr == "cluster":
                if self._cluster is None:
                    self._cluster = HandleVal("cluster", uid=next(self.uid))
                return self._cluster
            return MethodVal(handle, attr)
        if handle.kind == "coarray":
            if attr == "local":
                return ArrayVal(handle.meta.get("shape", (UNKNOWN,)),
                                handle.meta.get("itemsize", 8), None)
            if attr == "shape":
                return handle.meta.get("shape", (UNKNOWN,))
            return MethodVal(handle, attr)
        if handle.kind == "mpi":
            if attr == "COMM_WORLD":
                return self._comm_world()
            if attr == "rank":
                return self.rank
            if attr == "size":
                return self.nranks
            return MethodVal(handle, attr)
        if handle.kind == "comm":
            if attr == "rank":
                return self.rank
            if attr == "size":
                return self.nranks
            return MethodVal(handle, attr)
        if handle.kind == "window":
            if attr == "local":
                return ArrayVal((handle.meta.get("nelems", UNKNOWN),),
                                handle.meta.get("itemsize", 8), None)
            return MethodVal(handle, attr)
        return MethodVal(handle, attr)

    # -- shared protocol handles ----------------------------------------

    def _mpi_world(self) -> HandleVal:
        if self._mpi is None:
            self._mpi = HandleVal("mpi", uid=next(self.uid))
        return self._mpi

    def _comm_world(self) -> HandleVal:
        if self._comm is None:
            self._comm = HandleVal("comm", uid=next(self.uid))
        return self._comm

    def _gasnet_world(self) -> HandleVal:
        if self._gasnet is None:
            self._gasnet = HandleVal("gasnet", uid=next(self.uid))
        return self._gasnet

    # -- calls ----------------------------------------------------------

    def call(
        self, func: Any, args: list[Any], kwargs: dict[str, Any], node: ast.Call
    ) -> Any:
        if isinstance(func, FuncVal):
            return self.invoke(func, args, kwargs, node)
        if isinstance(func, ClassVal):
            return self.instantiate(func, args, kwargs, node)
        if isinstance(func, MethodVal):
            return self.call_method(func.obj, func.name, args, kwargs, node)
        if isinstance(func, ModuleFn):
            return self.numpy_call(func, args, kwargs, node)
        if isinstance(func, BuiltinVal):
            return self.builtin_call(func.name, args, kwargs, node)
        if isinstance(func, DtypeVal):
            if args and is_num(args[0]):
                try:
                    return np.dtype(func.name).type(args[0]).item()
                except Exception:
                    return UNKNOWN
            if args and isinstance(args[0], ArrayVal):
                return ArrayVal(args[0].shape, itemsize_of(func.name), None)
            return UNKNOWN
        if isinstance(func, HandleVal) and func.kind in ("mpi", "gasnet"):
            return func  # MpiWorld.get(...)/GasnetWorld(...)-style chains
        self.escape_args(args, kwargs)
        return UNKNOWN

    def escape_args(self, args: list[Any], kwargs: dict[str, Any]) -> None:
        def visit(value: Any) -> None:
            if isinstance(value, HandleVal) and value.kind == "event":
                if not value.escaped:
                    value.escaped = True
                    self.warn(f"escape:event#{value.uid}")
            elif isinstance(value, (list, tuple, set)):
                for item in value:
                    visit(item)
            elif isinstance(value, dict):
                for item in value.values():
                    visit(item)
            elif isinstance(value, InstanceVal):
                for item in value.attrs.values():
                    if isinstance(item, HandleVal):
                        visit(item)

        for a in args:
            visit(a)
        for v in kwargs.values():
            visit(v)

    def invoke(
        self, fv: FuncVal, args: list[Any], kwargs: dict[str, Any], node: ast.Call
    ) -> Any:
        if len(self.func_stack) >= _MAX_CALL_DEPTH or fv.node in self.node_stack:
            self.warn("recursion")
            self.escape_args(args, kwargs)
            return UNKNOWN
        env = Env(fv.closure if fv.closure is not None else self.c.module_env)
        fn_args = fv.node.args
        positional = [a.arg for a in fn_args.posonlyargs] + [a.arg for a in fn_args.args]
        if fv.self_val is not None:
            args = [fv.self_val] + args
        # Bind positional parameters.
        for i, name in enumerate(positional):
            if i < len(args):
                env.set(name, args[i])
        if fn_args.vararg is not None:
            env.set(fn_args.vararg.arg, tuple(args[len(positional):]))
        # Defaults for unbound positionals.
        defaults = list(fn_args.defaults)
        offset = len(positional) - len(defaults)
        for i, name in enumerate(positional):
            if i >= len(args) and name not in env.vars:
                if name in kwargs:
                    env.set(name, kwargs.pop(name))
                elif i >= offset:
                    env.set(name, self._safe_eval_default(defaults[i - offset], fv))
                else:
                    env.set(name, UNKNOWN)
        for kw, default in zip(fn_args.kwonlyargs, fn_args.kw_defaults):
            if kw.arg in kwargs:
                env.set(kw.arg, kwargs.pop(kw.arg))
            elif default is not None:
                env.set(kw.arg, self._safe_eval_default(default, fv))
            else:
                env.set(kw.arg, UNKNOWN)
        if fn_args.kwarg is not None:
            env.set(fn_args.kwarg.arg, dict(kwargs))
        self.func_stack.append(fv.qualname)
        self.node_stack.append(fv.node)
        try:
            self.exec_stmts(fv.node.body, env)
            return None
        except _ReturnSignal as ret:
            return ret.value
        finally:
            self.func_stack.pop()
            self.node_stack.pop()

    def _safe_eval_default(self, default: ast.AST, fv: FuncVal) -> Any:
        try:
            return self.eval(default, fv.closure or self.c.module_env)
        except Exception:
            return UNKNOWN

    def instantiate(
        self, cv: ClassVal, args: list[Any], kwargs: dict[str, Any], node: ast.Call
    ) -> Any:
        inst = InstanceVal(cv.node.name)
        init = self._class_method(cv, "__init__")
        if init is not None:
            fv = FuncVal(init, f"{cv.node.name}.__init__", closure=cv.closure,
                         self_val=inst)
            self.invoke(fv, args, kwargs, node)
        else:
            for key, value in kwargs.items():
                inst.attrs[key] = value
        return inst

    # -- builtins -------------------------------------------------------

    def builtin_call(
        self, name: str, args: list[Any], kwargs: dict[str, Any], node: ast.Call
    ) -> Any:
        if name == "print":
            return None
        if name == "isinstance":
            return UNKNOWN
        if name == "len":
            if args and isinstance(args[0], ArrayVal):
                d = args[0].shape[0] if args[0].shape else UNKNOWN
                return int(d) if is_int(d) else UNKNOWN
            if args and isinstance(args[0], (list, tuple, dict, set, str, range)):
                return len(args[0])
            return UNKNOWN
        if name == "range":
            if all(is_int(a) for a in args) and 1 <= len(args) <= 3:
                try:
                    return range(*[int(a) for a in args])
                except (ValueError, TypeError):
                    return UNKNOWN
            return UNKNOWN
        if name in ("int", "float", "bool", "abs", "round"):
            if args and is_num(args[0]):
                try:
                    return {"int": int, "float": float, "bool": bool, "abs": abs,
                            "round": round}[name](args[0])
                except (ValueError, OverflowError):
                    return UNKNOWN
            return UNKNOWN
        if name in ("max", "min", "sum"):
            fn = {"max": max, "min": min, "sum": sum}[name]
            if len(args) == 1:
                items = self.concrete_iter(args[0])
                if items is not None and items and all(is_num(i) for i in items):
                    return fn(items)
                return UNKNOWN
            if args and all(is_num(a) for a in args):
                return fn(args)
            return UNKNOWN
        if name == "enumerate":
            items = self.concrete_iter(args[0]) if args else None
            if items is None:
                return UNKNOWN
            start = args[1] if len(args) > 1 and is_int(args[1]) else 0
            return [(start + i, v) for i, v in enumerate(items)]
        if name == "zip":
            lists = [self.concrete_iter(a) for a in args]
            if any(ls is None for ls in lists):
                return UNKNOWN
            return [tuple(t) for t in zip(*lists)]
        if name in ("sorted", "reversed", "list", "tuple", "set"):
            items = self.concrete_iter(args[0]) if args else []
            if items is None:
                return UNKNOWN
            if name == "sorted":
                try:
                    return sorted(items)
                except TypeError:
                    return list(items)
            if name == "reversed":
                return list(reversed(items))
            if name == "tuple":
                return tuple(items)
            if name == "set":
                try:
                    return set(items)
                except TypeError:
                    return UNKNOWN
            return list(items)
        if name == "dict":
            if not args:
                return dict(kwargs)
            return UNKNOWN
        if name == "str":
            return "?"
        if name == "divmod":
            if len(args) == 2 and all(is_num(a) for a in args):
                try:
                    return divmod(args[0], args[1])
                except ZeroDivisionError:
                    return UNKNOWN
            return UNKNOWN
        if name == "pow":
            if all(is_num(a) for a in args):
                try:
                    return pow(*args)
                except (ValueError, ZeroDivisionError):
                    return UNKNOWN
            return UNKNOWN
        if name in ("any", "all"):
            items = self.concrete_iter(args[0]) if args else None
            if items is None or any(is_unknown(i) or isinstance(i, ArrayVal) for i in items):
                return UNKNOWN
            return any(items) if name == "any" else all(items)
        return UNKNOWN

    # -- iteration ------------------------------------------------------

    def concrete_iter(self, value: Any) -> list[Any] | None:
        if isinstance(value, range):
            if len(value) > _MAX_CONCRETE_ELEMS:
                return None
            return list(value)
        if isinstance(value, (list, tuple)):
            return list(value)
        if isinstance(value, dict):
            return list(value.keys())
        if isinstance(value, set):
            return sorted(value, key=repr)
        if isinstance(value, ArrayVal) and value.data is not None:
            return [self._wrap_np(row) for row in value.data]
        return None

    @staticmethod
    def _wrap_np(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return ArrayVal(value.shape, value.dtype.itemsize, value)
        if isinstance(value, np.generic):
            return value.item()
        return value

    # -- indexing -------------------------------------------------------

    def eval_index(self, node: ast.AST, env: Env) -> Any:
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e, env) for e in node.elts)
        return self.eval(node, env)

    def getitem(self, obj: Any, key: Any) -> Any:
        if is_unknown(obj):
            return UNKNOWN
        if isinstance(obj, ArrayVal):
            return self._array_getitem(obj, key)
        if isinstance(obj, dict):
            if is_unknown(key):
                return UNKNOWN
            try:
                return obj.get(key, UNKNOWN)
            except TypeError:
                return UNKNOWN
        if isinstance(obj, (list, tuple, str, range)):
            if is_int(key):
                try:
                    item = obj[int(key)]
                except IndexError:
                    return UNKNOWN
                return self._wrap_np(item)
            if isinstance(key, slice):
                try:
                    return list(obj[key]) if not isinstance(obj, (str, tuple)) else obj[key]
                except (TypeError, ValueError):
                    return UNKNOWN
            return UNKNOWN
        return UNKNOWN

    def _array_getitem(self, arr: ArrayVal, key: Any) -> Any:
        idx = key if isinstance(key, tuple) else (key,)
        if arr.data is not None:
            concrete = self._concrete_index(idx)
            if concrete is not None:
                try:
                    result = arr.data[concrete]
                except (IndexError, TypeError, ValueError):
                    result = None
                if result is not None:
                    return self._wrap_np(result)
        dims = list(arr.shape)
        out: list[Any] = []
        pos = 0
        for part in idx:
            if part is Ellipsis:
                # Align remaining indices to the trailing dims.
                explicit = sum(1 for p in idx if p is not None and p is not Ellipsis) - 1
                while len(dims) - pos > explicit - (idx.index(part)):
                    out.append(dims[pos])
                    pos += 1
                    if pos >= len(dims):
                        break
                continue
            if part is None:
                out.append(1)
                continue
            if pos >= len(dims):
                return UNKNOWN
            dim = dims[pos]
            if is_int(part):
                pos += 1
            elif isinstance(part, slice):
                out.append(self._slice_len(part, dim))
                pos += 1
            elif isinstance(part, ArrayVal):
                if part.mask:
                    if is_int(dim):
                        self.warn("mask-half")
                        out.append(max(int(dim) // 2, 1))
                    else:
                        out.append(UNKNOWN)
                    pos += 1
                else:
                    out.extend(part.shape)
                    pos += 1
            else:
                out.append(UNKNOWN)
                pos += 1
        out.extend(dims[pos:])
        if not out:
            return UNKNOWN  # scalar element of a data-unknown array
        return ArrayVal(tuple(out), arr.itemsize, None, mask=arr.mask)

    @staticmethod
    def _concrete_index(idx: tuple[Any, ...]) -> Any | None:
        parts: list[Any] = []
        for part in idx:
            if is_int(part):
                parts.append(int(part))
            elif isinstance(part, slice):
                for sub in (part.start, part.stop, part.step):
                    if sub is not None and not is_int(sub):
                        return None
                parts.append(part)
            elif part is None or part is Ellipsis:
                parts.append(part)
            elif isinstance(part, ArrayVal) and part.data is not None:
                parts.append(part.data)
            else:
                return None
        return tuple(parts) if len(parts) > 1 else parts[0]

    @staticmethod
    def _slice_len(sl: slice, dim: Any) -> Any:
        parts = (sl.start, sl.stop, sl.step)
        if any(p is not None and not is_int(p) for p in parts):
            return UNKNOWN
        if not is_int(dim):
            # Unbounded slices keep the unknown extent marker.
            if sl.start in (None, 0) and sl.stop is None and sl.step in (None, 1):
                return dim
            return UNKNOWN
        start = int(sl.start) if sl.start is not None else None
        stop = int(sl.stop) if sl.stop is not None else None
        step = int(sl.step) if sl.step is not None else None
        try:
            return len(range(*slice(start, stop, step).indices(int(dim))))
        except (ValueError, TypeError):
            return UNKNOWN

    # -- payload sizing -------------------------------------------------

    def nbytes_of(self, value: Any, itemsize: int | None = None) -> Any:
        n = self.nelems_of(value)
        if not is_int(n):
            return UNKNOWN
        if isinstance(value, ArrayVal) and itemsize is None:
            return n * value.itemsize
        return n * (itemsize if itemsize is not None else 8)

    def nelems_of(self, value: Any) -> Any:
        if isinstance(value, ArrayVal):
            return value.size
        if isinstance(value, (list, tuple)):
            total = 0
            for item in value:
                sub = self.nelems_of(item)
                if not is_int(sub):
                    return UNKNOWN
                total += sub
            return total
        if is_num(value):
            return 1
        return UNKNOWN

    # -- method calls ---------------------------------------------------

    def call_method(
        self, obj: Any, name: str, args: list[Any], kwargs: dict[str, Any],
        node: ast.Call,
    ) -> Any:
        if isinstance(obj, HandleVal):
            return self.protocol_call(obj, name, args, kwargs, node)
        if isinstance(obj, ArrayVal):
            return self.array_method(obj, name, args, kwargs)
        if isinstance(obj, RngVal):
            return self.rng_method(name, args, kwargs)
        if isinstance(obj, dict):
            return self._dict_method(obj, name, args)
        if isinstance(obj, list):
            return self._list_method(obj, name, args)
        if isinstance(obj, set):
            if name == "add" and args and not is_unknown(args[0]):
                try:
                    obj.add(args[0])
                except TypeError:
                    pass
                return None
            return UNKNOWN
        if isinstance(obj, str):
            return UNKNOWN
        self.escape_args(args, kwargs)
        return UNKNOWN

    def _dict_method(self, obj: dict, name: str, args: list[Any]) -> Any:
        if name == "items":
            return [(k, v) for k, v in obj.items()]
        if name == "keys":
            return list(obj.keys())
        if name == "values":
            return list(obj.values())
        if name == "get":
            key = args[0] if args else UNKNOWN
            if is_unknown(key):
                return UNKNOWN
            default = args[1] if len(args) > 1 else None
            try:
                return obj.get(key, default)
            except TypeError:
                return UNKNOWN
        if name == "pop":
            key = args[0] if args else UNKNOWN
            if not is_unknown(key):
                try:
                    return obj.pop(key, UNKNOWN)
                except TypeError:
                    return UNKNOWN
            return UNKNOWN
        if name == "setdefault":
            key = args[0] if args else UNKNOWN
            if not is_unknown(key):
                try:
                    return obj.setdefault(key, args[1] if len(args) > 1 else None)
                except TypeError:
                    return UNKNOWN
            return UNKNOWN
        if name == "update" and args and isinstance(args[0], dict):
            obj.update(args[0])
            return None
        return UNKNOWN

    def _list_method(self, obj: list, name: str, args: list[Any]) -> Any:
        if name == "append":
            obj.append(args[0] if args else UNKNOWN)
            return None
        if name == "extend":
            items = self.concrete_iter(args[0]) if args else None
            if items is not None:
                obj.extend(items)
            else:
                obj.append(UNKNOWN)
            return None
        if name == "pop":
            if obj:
                if not args:
                    return obj.pop()
                if is_int(args[0]) and -len(obj) <= args[0] < len(obj):
                    return obj.pop(int(args[0]))
            return UNKNOWN
        if name == "insert" and len(args) == 2 and is_int(args[0]):
            obj.insert(int(args[0]), args[1])
            return None
        if name == "sort":
            try:
                obj.sort()
            except TypeError:
                pass
            return None
        if name == "index" and args:
            try:
                return obj.index(args[0])
            except (ValueError, TypeError):
                return UNKNOWN
        if name == "count" and args:
            try:
                return obj.count(args[0])
            except TypeError:
                return UNKNOWN
        if name == "copy":
            return list(obj)
        if name == "remove" and args:
            try:
                obj.remove(args[0])
            except (ValueError, TypeError):
                pass
            return None
        return UNKNOWN

    def array_method(
        self, arr: ArrayVal, name: str, args: list[Any], kwargs: dict[str, Any]
    ) -> Any:
        if name == "reshape":
            shape = args[0] if len(args) == 1 and isinstance(args[0], (tuple, list)) else tuple(args)
            shape = self._resolve_shape(shape, arr.size)
            data = None
            if arr.data is not None and all(is_int(d) for d in shape):
                try:
                    data = arr.data.reshape([int(d) for d in shape])
                except ValueError:
                    data = None
            return ArrayVal(tuple(shape), arr.itemsize, data, arr.mask)
        if name == "astype":
            dtype = args[0] if args else kwargs.get("dtype")
            itemsize = self._itemsize_from(dtype, arr.itemsize)
            data = None
            if arr.data is not None and isinstance(dtype, DtypeVal):
                try:
                    data = arr.data.astype(dtype.name)
                except TypeError:
                    data = None
            return ArrayVal(arr.shape, itemsize, data)
        if name in ("copy", "view", "conj", "conjugate"):
            return ArrayVal(arr.shape, arr.itemsize,
                            arr.data.copy() if arr.data is not None else None, arr.mask)
        if name in ("ravel", "flatten"):
            return ArrayVal((arr.size if is_int(arr.size) else UNKNOWN,),
                            arr.itemsize,
                            arr.data.ravel() if arr.data is not None else None)
        if name == "transpose":
            return ArrayVal(tuple(reversed(arr.shape)), arr.itemsize, None, arr.mask)
        if name in ("sum", "min", "max", "mean", "prod", "std", "var", "dot"):
            axis = kwargs.get("axis", args[0] if args and name != "dot" else None)
            if axis is None:
                if arr.data is not None and name != "dot":
                    try:
                        return self._wrap_np(getattr(arr.data, name)())
                    except Exception:
                        return UNKNOWN
                return UNKNOWN
            if is_int(axis) and 0 <= int(axis) < len(arr.shape):
                shape = tuple(d for i, d in enumerate(arr.shape) if i != int(axis))
                return ArrayVal(shape, arr.itemsize, None)
            return UNKNOWN
        if name in ("any", "all", "argmax", "argmin", "item", "tolist"):
            if arr.data is not None:
                try:
                    return self._wrap_np(getattr(arr.data, name)(*[
                        int(a) for a in args if is_int(a)
                    ]))
                except Exception:
                    return UNKNOWN
            if name == "tolist":
                n = arr.shape[0] if len(arr.shape) == 1 and is_int(arr.shape[0]) else None
                if n is not None and n <= _MAX_CONCRETE_ELEMS:
                    return [UNKNOWN] * int(n)
            return UNKNOWN
        if name == "fill":
            return None
        if name == "tobytes":
            return UNKNOWN
        return UNKNOWN

    def _resolve_shape(self, shape: Any, total: Any) -> tuple[Any, ...]:
        dims = list(shape) if isinstance(shape, (tuple, list)) else [shape]
        out = [int(d) if is_int(d) else (d if d == -1 else UNKNOWN) for d in dims]
        if -1 in out and is_int(total):
            known = 1
            ok = True
            for d in out:
                if is_int(d) and d != -1:
                    known *= int(d)
                elif d != -1:
                    ok = False
            if ok and known > 0 and int(total) % known == 0:
                out[out.index(-1)] = int(total) // known
        return tuple(UNKNOWN if d == -1 else d for d in out)

    @staticmethod
    def _itemsize_from(dtype: Any, default: int = 8) -> int:
        if isinstance(dtype, DtypeVal):
            return itemsize_of(dtype.name, default)
        if isinstance(dtype, str):
            return itemsize_of(dtype, default)
        return default

    def rng_method(self, name: str, args: list[Any], kwargs: dict[str, Any]) -> Any:
        size = kwargs.get("size")
        if size is None and name in ("standard_normal", "random") and args:
            size = args[0]
        if name in ("integers", "standard_normal", "random", "uniform", "normal",
                    "choice", "permutation", "exponential", "poisson"):
            itemsize = 8
            if name == "integers":
                itemsize = self._itemsize_from(kwargs.get("dtype"), 8)
            if size is None:
                if name == "permutation" and args and is_int(args[0]):
                    return ArrayVal((int(args[0]),), 8, None)
                return UNKNOWN
            if is_int(size):
                return ArrayVal((int(size),), itemsize, None)
            if isinstance(size, (tuple, list)):
                return ArrayVal(tuple(int(d) if is_int(d) else UNKNOWN for d in size),
                                itemsize, None)
            return ArrayVal((UNKNOWN,), itemsize, None)
        if name == "shuffle":
            return None
        return UNKNOWN

    # -- numpy module functions -----------------------------------------

    def numpy_call(
        self, fn: ModuleFn, args: list[Any], kwargs: dict[str, Any], node: ast.Call
    ) -> Any:
        name = fn.name
        if fn.module == "math":
            mathfn = getattr(math, name, None)
            if mathfn is not None and all(is_num(a) for a in args):
                try:
                    return mathfn(*args)
                except (ValueError, OverflowError, TypeError):
                    return UNKNOWN
            return UNKNOWN
        if fn.module == "numpy.random":
            if name == "default_rng":
                return RngVal()
            return UNKNOWN
        if fn.module == "numpy.fft":
            if args and isinstance(args[0], ArrayVal):
                return ArrayVal(args[0].shape, 16, None)
            return UNKNOWN
        if fn.module == "numpy.linalg":
            if name == "solve" and len(args) >= 2 and isinstance(args[1], ArrayVal):
                return args[1].like()
            if name in ("norm", "det", "cond"):
                return UNKNOWN
            if name == "inv" and args and isinstance(args[0], ArrayVal):
                return args[0].like()
            return UNKNOWN
        if fn.module != "numpy":
            return UNKNOWN

        itemsize = self._itemsize_from(kwargs.get("dtype"), 8)
        if name in ("zeros", "ones", "empty", "full"):
            shape = args[0] if args else UNKNOWN
            dims = shape if isinstance(shape, (tuple, list)) else (shape,)
            dtype_idx = 2 if name == "full" else 1
            if "dtype" not in kwargs and len(args) > dtype_idx:
                itemsize = self._itemsize_from(args[dtype_idx], 8)
            return ArrayVal(tuple(int(d) if is_int(d) else UNKNOWN for d in dims),
                            itemsize, None)
        if name in ("zeros_like", "ones_like", "empty_like", "full_like"):
            if args and isinstance(args[0], ArrayVal):
                return args[0].like()
            return UNKNOWN
        if name in ("array", "asarray", "ascontiguousarray", "asfortranarray", "copy"):
            if not args:
                return UNKNOWN
            value = args[0]
            if isinstance(value, ArrayVal):
                if "dtype" in kwargs:
                    return ArrayVal(value.shape, itemsize, None, value.mask)
                return ArrayVal(value.shape, value.itemsize, value.data, value.mask)
            if is_num(value):
                return ArrayVal((), itemsize if "dtype" in kwargs else 8, None)
            if isinstance(value, (list, tuple)):
                return self._array_from_list(value,
                                             itemsize if "dtype" in kwargs else None)
            return UNKNOWN
        if name == "arange":
            nums = [a for a in args]
            if all(is_num(a) for a in nums) and 1 <= len(nums) <= 3:
                try:
                    data = np.arange(*nums)
                except (ValueError, TypeError):
                    return UNKNOWN
                if data.size <= _MAX_CONCRETE_ELEMS:
                    if "dtype" in kwargs:
                        data = data.astype(f"i{itemsize}" if itemsize < 8 else data.dtype)
                    return ArrayVal(data.shape, data.dtype.itemsize, data)
                return ArrayVal((int(data.size),), 8, None)
            return ArrayVal((UNKNOWN,), 8, None)
        if name == "linspace":
            if len(args) >= 3 and all(is_num(a) for a in args[:3]):
                try:
                    data = np.linspace(args[0], args[1], int(args[2]))
                except (ValueError, TypeError):
                    return UNKNOWN
                dtype = kwargs.get("dtype")
                if isinstance(dtype, BuiltinVal) and dtype.name == "int":
                    data = data.astype(np.int64)
                elif isinstance(dtype, DtypeVal):
                    try:
                        data = data.astype(dtype.name)
                    except TypeError:
                        pass
                if data.size <= _MAX_CONCRETE_ELEMS:
                    return ArrayVal(data.shape, data.dtype.itemsize, data)
                return ArrayVal((int(data.size),), 8, None)
            return ArrayVal((UNKNOWN,), 8, None)
        if name in ("concatenate", "vstack", "hstack", "stack"):
            parts = self.concrete_iter(args[0]) if args else None
            if parts is None:
                return ArrayVal((UNKNOWN,), 8, None)
            arrays = [p for p in parts if isinstance(p, ArrayVal)]
            if len(arrays) != len(parts):
                return ArrayVal((UNKNOWN,), 8, None)
            itemsize = max((a.itemsize for a in arrays), default=8)
            if all(a.data is not None for a in arrays):
                try:
                    stackfn = {"concatenate": np.concatenate, "vstack": np.vstack,
                               "hstack": np.hstack, "stack": np.stack}[name]
                    data = stackfn([a.data for a in arrays])
                    return ArrayVal(data.shape, data.dtype.itemsize, data)
                except (ValueError, TypeError):
                    pass
            if name in ("concatenate", "hstack") and all(
                len(a.shape) == 1 for a in arrays
            ):
                total: Any = 0
                for a in arrays:
                    d = a.shape[0]
                    if not is_int(d):
                        total = UNKNOWN
                        break
                    total += int(d)
                return ArrayVal((total,), itemsize, None)
            if name in ("vstack", "stack") and arrays and all(
                a.shape == arrays[0].shape for a in arrays
            ):
                return ArrayVal((len(arrays), *arrays[0].shape), itemsize, None)
            return ArrayVal((UNKNOWN,), itemsize, None)
        if name == "reshape":
            if args and isinstance(args[0], ArrayVal):
                return self.array_method(args[0], "reshape", args[1:], kwargs)
            return UNKNOWN
        if name in ("log2", "log", "log10", "sqrt", "exp", "sin", "cos", "tan",
                    "floor", "ceil", "abs", "absolute", "sign", "round", "rint"):
            if args and is_num(args[0]):
                mathname = {"abs": "fabs", "absolute": "fabs", "round": None,
                            "sign": None, "rint": None}.get(name, name)
                try:
                    if name in ("round", "rint"):
                        return round(args[0])
                    if name == "sign":
                        return (args[0] > 0) - (args[0] < 0)
                    return getattr(math, mathname)(args[0])
                except (ValueError, OverflowError):
                    return UNKNOWN
            if args and isinstance(args[0], ArrayVal):
                a = args[0]
                if a.data is not None:
                    try:
                        data = getattr(np, name)(a.data)
                        return ArrayVal(data.shape, data.dtype.itemsize, data)
                    except Exception:
                        pass
                return a.like()
            return UNKNOWN
        if name in ("maximum", "minimum", "add", "subtract", "multiply", "divide",
                    "mod", "power", "hypot", "arctan2"):
            if len(args) == 2:
                npfn = getattr(np, name)
                return self.binop(lambda x, y: npfn(x, y), args[0], args[1])
            return UNKNOWN
        if name == "where":
            if len(args) == 3:
                shapes = [a.shape for a in args if isinstance(a, ArrayVal)]
                shape: tuple[Any, ...] = ()
                for s in shapes:
                    shape = broadcast_shapes(shape, s)
                itemsize = max((a.itemsize for a in args[1:]
                                if isinstance(a, ArrayVal)), default=8)
                return ArrayVal(shape, itemsize, None)
            return UNKNOWN
        if name in ("sum", "min", "max", "mean", "prod", "cumsum", "dot", "vdot",
                    "count_nonzero", "argmax", "argmin"):
            if args and isinstance(args[0], ArrayVal):
                a = args[0]
                if name == "cumsum":
                    return a.like()
                if name == "dot" and len(args) == 2:
                    return UNKNOWN
                axis = kwargs.get("axis")
                if axis is None:
                    if a.data is not None:
                        try:
                            return self._wrap_np(getattr(np, name)(a.data))
                        except Exception:
                            return UNKNOWN
                    return UNKNOWN
                if is_int(axis) and 0 <= int(axis) < len(a.shape):
                    return ArrayVal(tuple(d for i, d in enumerate(a.shape)
                                          if i != int(axis)), a.itemsize, None)
            return UNKNOWN
        if name in ("isnan", "isfinite", "isinf", "signbit"):
            if args and isinstance(args[0], ArrayVal):
                return ArrayVal(args[0].shape, 1, None, mask=True)
            return UNKNOWN
        if name in ("allclose", "array_equal", "isclose", "may_share_memory"):
            return UNKNOWN
        if name == "eye":
            if args and is_int(args[0]):
                n = int(args[0])
                return ArrayVal((n, n), itemsize, None)
            return UNKNOWN
        if name == "outer":
            if len(args) == 2 and all(isinstance(a, ArrayVal) for a in args):
                da = args[0].shape[0] if args[0].shape else UNKNOWN
                db = args[1].shape[0] if args[1].shape else UNKNOWN
                return ArrayVal((da, db), promote_itemsize(args[0], args[1]), None)
            return UNKNOWN
        if name in ("tril", "triu", "roll", "sort", "flip", "squeeze"):
            if args and isinstance(args[0], ArrayVal):
                return args[0].like()
            return UNKNOWN
        if name in ("bitwise_xor", "bitwise_and", "bitwise_or", "logical_and",
                    "logical_or", "logical_not"):
            arrays = [a for a in args if isinstance(a, ArrayVal)]
            if arrays:
                return arrays[0].like()
            return UNKNOWN
        if name in ("float64", "float32", "int64", "int32", "uint64", "uint32",
                    "int8", "uint8", "complex128", "complex64"):
            if args and is_num(args[0]):
                try:
                    return np.dtype(name).type(args[0]).item()
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        if name == "dtype":
            if args and isinstance(args[0], (str, DtypeVal)):
                dname = args[0].name if isinstance(args[0], DtypeVal) else args[0]
                return DtypeVal(dname)
            return UNKNOWN
        return UNKNOWN

    def _array_from_list(self, value: Any, itemsize: int | None) -> Any:
        # Nested python lists: shape from structure; data when all concrete.
        def shape_of(v: Any) -> tuple[Any, ...] | None:
            if isinstance(v, (list, tuple)):
                if not v:
                    return (0,)
                sub = shape_of(v[0])
                if sub is None:
                    return (len(v),)
                return (len(v), *sub)
            return None

        shape = shape_of(value)
        if shape is None:
            return UNKNOWN

        flat: list[Any] = []

        def flatten(v: Any) -> bool:
            if isinstance(v, (list, tuple)):
                return all(flatten(i) for i in v)
            if is_num(v):
                flat.append(v)
                return True
            if isinstance(v, ArrayVal):
                return False
            flat.append(None)
            return False

        all_concrete = flatten(value)
        nested_arrays = [v for v in value if isinstance(v, ArrayVal)]
        if nested_arrays and len(nested_arrays) == len(value):
            first = nested_arrays[0]
            if all(a.shape == first.shape for a in nested_arrays):
                return ArrayVal((len(value), *first.shape),
                                itemsize or first.itemsize, None)
            return ArrayVal((len(value), UNKNOWN), itemsize or first.itemsize, None)
        if all_concrete:
            try:
                data = np.array(value)
                if data.size <= _MAX_CONCRETE_ELEMS:
                    return ArrayVal(data.shape, data.dtype.itemsize, data)
                return ArrayVal(data.shape, data.dtype.itemsize, None)
            except (ValueError, TypeError):
                pass
        return ArrayVal(shape, itemsize or 8, None)

    # -- protocol op emission -------------------------------------------

    def protocol_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        kind = handle.kind
        if kind == "image":
            return self._image_call(handle, method, args, kwargs, node)
        if kind == "coarray":
            return self._coarray_call(handle, method, args, kwargs, node)
        if kind == "event":
            return self._event_call(handle, method, args, kwargs, node)
        if kind == "mpi":
            return self._mpiworld_call(handle, method, args, kwargs, node)
        if kind == "comm":
            return self._comm_call(handle, method, args, kwargs, node)
        if kind == "window":
            return self._window_call(handle, method, args, kwargs, node)
        if kind == "gasnet":
            if method in _GASNET_BLOCKING:
                self.emit(kind=f"gasnet.{method}", method=method, node=node,
                          nbytes=0, is_mpi_block=True)
                return None
            return handle  # get()/attach() chains return the world
        if kind == "cluster":
            if method == "shared":
                # Model Cluster.shared(key, factory) as the get-or-create
                # singleton it is: evaluate the factory once per key so
                # the produced value (shape, itemsize) flows through —
                # apps share e.g. their generated input arrays this way.
                key = self._arg(args, kwargs, 0, "key")
                factory = self._arg(args, kwargs, 1, "factory")
                try:
                    hit = key in self._cluster_shared
                except TypeError:
                    return self.call(factory, [], {}, node)
                if not hit:
                    self._cluster_shared[key] = self.call(factory, [], {}, node)
                return self._cluster_shared[key]
            self.escape_args(args, kwargs)
            return UNKNOWN
        if kind == "finish":
            return UNKNOWN
        return UNKNOWN

    def _arg(self, args: list[Any], kwargs: dict[str, Any], idx: int, name: str,
             default: Any = None) -> Any:
        if idx < len(args):
            return args[idx]
        return kwargs.get(name, default)

    def _image_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        if method == "allocate_coarray":
            shape = self._arg(args, kwargs, 0, "shape", UNKNOWN)
            dims = shape if isinstance(shape, (tuple, list)) else (shape,)
            itemsize = self._itemsize_from(self._arg(args, kwargs, 1, "dtype"), 8)
            return HandleVal(
                "coarray", uid=next(self.uid),
                meta={"shape": tuple(int(d) if is_int(d) else UNKNOWN for d in dims),
                      "itemsize": itemsize,
                      "line": node.lineno},
            )
        if method == "allocate_events":
            nslots = self._arg(args, kwargs, 0, "nslots", 1)
            return HandleVal(
                "event", uid=next(self.uid),
                meta={"nslots": int(nslots) if is_int(nslots) else 1,
                      "line": node.lineno},
            )
        if method == "mpi":
            return self._mpi_world()
        if method == "this_image":
            return self.rank if not args else UNKNOWN
        if method == "num_images":
            return self.nranks if not args else UNKNOWN
        if method in _IMG_COLLECTIVES:
            suffix = _IMG_COLLECTIVES[method]
            buf = self._arg(args, kwargs, 0, "buf" if suffix == "broadcast" else "send")
            nbytes = 0 if suffix == "barrier" else self.nbytes_of(buf)
            self.emit(kind=f"caf.coll.{suffix}", method=method, node=node,
                      nbytes=nbytes, nelems=self.nelems_of(buf) if suffix != "barrier" else 0,
                      is_sync=True)
            return None
        if method in ("team_broadcast_async", "team_reduce_async",
                      "team_allreduce_async", "team_alltoall_async",
                      "team_allgather_async"):
            base = method[len("team_"):-len("_async")]
            buf = args[0] if args else None
            self.emit(kind=f"caf.coll.{base}", method=method, node=node,
                      nbytes=self.nbytes_of(buf), is_sync=False)
            self.escape_args([], {k: v for k, v in kwargs.items()
                              if k in ("data_event", "op_event")})
            return None
        if method == "sync_images":
            self.emit(kind="caf.coll.sync_images", method=method, node=node,
                      nbytes=0, is_sync=True)
            return None
        if method == "cofence":
            self.emit(kind="caf.cofence", method=method, node=node, nbytes=0,
                      is_sync=True)
            return None
        if method == "finish":
            return HandleVal("finish", uid=next(self.uid))
        if method == "copy_async":
            dest_image = self._arg(args, kwargs, 1, "dest_image")
            data = self._arg(args, kwargs, 2, "data")
            self.emit(kind="caf.async_copy", method=method, node=node,
                      peer=dest_image, nbytes=self.nbytes_of(data),
                      nelems=self.nelems_of(data), is_caf_put=True)
            self._post_async_events(kwargs, dest_image, node)
            return None
        if method == "spawn" or method == "spawn_future":
            target = self._arg(args, kwargs, 0, "target")
            self.emit(kind="caf.spawn", method=method, node=node, peer=target)
            self.warn("spawn")
            self.escape_args(args[2:], kwargs)
            return UNKNOWN
        if method == "serve":
            self.emit(kind="caf.serve", method=method, node=node, is_sync=True)
            self.warn("serve")
            return None
        if method in ("compute", "profile"):
            return HandleVal("finish", uid=-1) if method == "profile" else None
        if method == "now":
            return UNKNOWN
        if method == "failed_images":
            return []
        if method in ("team_split", "shrink_team"):
            return UNKNOWN
        return UNKNOWN

    def _post_async_events(self, kwargs: dict[str, Any], target: Any,
                           node: ast.Call) -> None:
        """write_async/copy_async side events: the runtime posts
        ``src_event`` locally and ``dest_event`` at the target image."""
        for key, peer in (("src_event", self.rank), ("dest_event", target)):
            pair = kwargs.get(key)
            if isinstance(pair, (tuple, list)) and len(pair) == 2:
                ev, slot = pair
                if isinstance(ev, HandleVal) and ev.kind == "event":
                    self.emit(
                        kind="caf.event_notify", method=f"async:{key}", node=node,
                        peer=peer, nbytes=0,
                        event=(ev.uid, int(slot) if is_int(slot) else 0),
                    )
                elif pair is not None:
                    self.escape_args([pair], {})

    def _coarray_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        itemsize = handle.meta.get("itemsize", 8)
        shape = handle.meta.get("shape", (UNKNOWN,))
        if method in ("write", "write_section"):
            target = self._arg(args, kwargs, 0, "target")
            data = args[-1] if len(args) >= 2 else kwargs.get("data")
            self.emit(kind="caf.coarray_write", method=method, node=node,
                      peer=target, nbytes=self.nbytes_of(data, itemsize),
                      nelems=self.nelems_of(data), is_caf_put=True)
            return None
        if method == "read":
            target = self._arg(args, kwargs, 0, "target")
            offset = self._arg(args, kwargs, 1, "offset", 0)
            count = self._arg(args, kwargs, 2, "count")
            if count is None:
                total = 1
                for d in shape:
                    if not is_int(d):
                        total = None
                        break
                    total *= int(d)
                if total is not None and is_int(offset):
                    count = max(total - int(offset), 0)
                else:
                    count = UNKNOWN
            n = int(count) if is_int(count) else UNKNOWN
            self.emit(kind="caf.coarray_read", method=method, node=node,
                      peer=target,
                      nbytes=n * itemsize if is_int(n) else UNKNOWN,
                      nelems=n, is_caf_put=True)
            return ArrayVal((n,), itemsize, None)
        if method == "read_section":
            target = self._arg(args, kwargs, 0, "target")
            key = self._arg(args, kwargs, 1, "key")
            result = self._array_getitem(ArrayVal(shape, itemsize, None),
                                         key if key is not None else UNKNOWN)
            out = result if isinstance(result, ArrayVal) else ArrayVal((UNKNOWN,), itemsize, None)
            self.emit(kind="caf.coarray_read", method=method, node=node,
                      peer=target, nbytes=out.nbytes, nelems=out.size,
                      is_caf_put=True)
            return out
        if method in ("write_async", "read_async"):
            target = self._arg(args, kwargs, 0, "target")
            if method == "write_async":
                data = self._arg(args, kwargs, 1, "data")
                nbytes = self.nbytes_of(data, itemsize)
                nelems = self.nelems_of(data)
            else:
                count = kwargs.get("count", UNKNOWN)
                nelems = int(count) if is_int(count) else UNKNOWN
                nbytes = nelems * itemsize if is_int(nelems) else UNKNOWN
            kind = "caf.async_write" if method == "write_async" else "caf.async_read"
            self.emit(kind=kind, method=method, node=node, peer=target,
                      nbytes=nbytes, nelems=nelems, is_caf_put=True)
            self._post_async_events(kwargs, target, node)
            predicate = kwargs.get("predicate")
            if predicate is not None:
                self.escape_args([predicate], {})
            if method == "read_async":
                return ArrayVal((nelems,), itemsize, None)
            return None
        return UNKNOWN

    def _event_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        if method == "notify":
            target = self._arg(args, kwargs, 0, "target")
            slot = self._arg(args, kwargs, 1, "slot", 0)
            self.emit(kind="caf.event_notify", method=method, node=node,
                      peer=target, nbytes=0,
                      event=(handle.uid, int(slot) if is_int(slot) else -1))
            return None
        if method == "wait":
            slot = self._arg(args, kwargs, 0, "slot", 0)
            count = self._arg(args, kwargs, 1, "count", 1)
            timeout = kwargs.get("timeout")
            self.emit(kind="caf.event_wait", method=method, node=node,
                      peer=self.rank, nbytes=0,
                      event=(handle.uid, int(slot) if is_int(slot) else -1),
                      count=count, bounded=timeout is not None, is_sync=True)
            return None
        if method == "trywait":
            slot = self._arg(args, kwargs, 0, "slot", 0)
            self.emit(kind="caf.event_trywait", method=method, node=node,
                      peer=self.rank, nbytes=0,
                      event=(handle.uid, int(slot) if is_int(slot) else -1),
                      bounded=True)
            return UNKNOWN
        if method == "count":
            return UNKNOWN
        if method == "on_next_post":
            handle.escaped = True
            self.warn(f"escape:event#{handle.uid}")
            return None
        return UNKNOWN

    def _mpiworld_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        if method in ("win_allocate", "win_allocate_shared", "win_create_dynamic"):
            memory_model = kwargs.get("memory_model", "unified")
            nelems = self._arg(args, kwargs, 0, "nelems")
            itemsize = self._itemsize_from(kwargs.get("dtype"), 8)
            self.emit(kind="mpi.win.allocate", method=method, node=node,
                      nbytes=0, is_mpi_block=True)
            return HandleVal(
                "window", uid=next(self.uid),
                meta={"memory_model": memory_model if isinstance(memory_model, str)
                      else UNKNOWN,
                      "nelems": int(nelems) if is_int(nelems) else UNKNOWN,
                      "itemsize": itemsize, "line": node.lineno},
            )
        if method in ("get", "init"):
            return handle
        return UNKNOWN

    def _comm_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        if method in _COMM_COLLECTIVES:
            buf = args[0] if args else None
            nbytes = 0 if method == "barrier" else self.nbytes_of(buf)
            self.emit(kind=f"mpi.coll.{method}", method=method, node=node,
                      nbytes=nbytes,
                      nelems=0 if method == "barrier" else self.nelems_of(buf),
                      is_mpi_block=True, is_sync=False)
            return None
        if method == "send":
            dest = self._arg(args, kwargs, 1, "dest")
            self.emit(kind="mpi.send", method=method, node=node, peer=dest,
                      nbytes=self.nbytes_of(args[0] if args else None),
                      nelems=self.nelems_of(args[0] if args else None),
                      is_mpi_block=True)
            return None
        if method == "recv":
            source = self._arg(args, kwargs, 1, "source")
            self.emit(kind="mpi.recv", method=method, node=node, peer=source,
                      nbytes=self.nbytes_of(args[0] if args else None),
                      is_mpi_block=True)
            return UNKNOWN
        if method == "sendrecv":
            dest = self._arg(args, kwargs, 1, "dest")
            source = self._arg(args, kwargs, 3, "source")
            self.emit(kind="mpi.send", method=method, node=node, peer=dest,
                      nbytes=self.nbytes_of(args[0] if args else None),
                      is_mpi_block=True)
            self.emit(kind="mpi.recv", method=method, node=node, peer=source,
                      nbytes=self.nbytes_of(args[2] if len(args) > 2 else None),
                      is_mpi_block=True)
            return UNKNOWN
        if method == "isend":
            dest = self._arg(args, kwargs, 1, "dest")
            self.emit(kind="mpi.isend", method=method, node=node, peer=dest,
                      nbytes=self.nbytes_of(args[0] if args else None))
            return UNKNOWN
        if method == "irecv":
            source = self._arg(args, kwargs, 1, "source")
            self.emit(kind="mpi.irecv", method=method, node=node, peer=source,
                      nbytes=self.nbytes_of(args[0] if args else None))
            return UNKNOWN
        if method == "probe":
            self.emit(kind="mpi.probe", method=method, node=node, is_mpi_block=True)
            return UNKNOWN
        if method in ("ibarrier", "iallreduce", "ibcast", "ialltoall"):
            self.emit(kind=f"mpi.coll.{method[1:]}", method=method, node=node,
                      nbytes=self.nbytes_of(args[0] if args else None))
            return UNKNOWN
        if method == "iprobe":
            return UNKNOWN
        return UNKNOWN

    def _window_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        itemsize = handle.meta.get("itemsize", 8)
        if method in _WIN_RMA:
            suffix, target_idx = _WIN_RMA[method]
            target = self._arg(args, kwargs, target_idx, "target")
            data = args[0] if args else None
            self.emit(kind=f"mpi.win.{suffix}" if suffix != "rput" else "mpi.rput",
                      method=method, node=node, peer=target,
                      nbytes=self.nbytes_of(data, itemsize),
                      nelems=self.nelems_of(data))
            if method.startswith("r"):
                return UNKNOWN  # request
            return None
        if method in ("flush", "flush_local"):
            target = self._arg(args, kwargs, 0, "target")
            self.emit(kind=f"mpi.win.{method}", method=method, node=node,
                      peer=target, nbytes=0, is_mpi_block=True)
            return None
        if method in ("flush_all", "flush_local_all"):
            self.emit(kind=f"mpi.win.{method}", method=method, node=node,
                      nbytes=0, is_mpi_block=True)
            return None
        if method in ("lock", "unlock", "lock_all", "unlock_all", "fence", "sync"):
            target = self._arg(args, kwargs, 0, "target") if method in (
                "lock", "unlock") else None
            model = handle.meta.get("memory_model")
            self.emit(kind=f"mpi.win.{method}", method=method, node=node,
                      peer=target, nbytes=0,
                      is_mpi_block=method in ("fence", "lock", "unlock"),
                      note=model if isinstance(model, str) else None)
            return None
        if method in ("attach", "detach", "shared_query", "region"):
            if method == "shared_query":
                return ArrayVal((handle.meta.get("nelems", UNKNOWN),), itemsize, None)
            return UNKNOWN
        return UNKNOWN
