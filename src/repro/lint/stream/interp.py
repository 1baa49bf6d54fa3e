"""Per-rank abstract interpretation of app modules into symbolic op streams.

The compiler runs each *entry point* (a top-level function whose first
parameter is named ``img`` and which the module itself never calls) once
per rank ``r in 0..P-1`` with ``img.rank`` bound to the concrete ``r``.
Rank-dependent branches (``if img.rank == 0``, XOR partners, ``rank ± 1``
neighbor arithmetic) therefore evaluate *exactly* instead of needing
guarded sub-streams, while loop trip counts are additionally kept
symbolic in ``P`` and the entry's parameters for the perf rule pack.

The result is one :class:`RankStream` per rank: a linear sequence of
:class:`StreamOp` whose kinds (``caf.coarray_write``, ``caf.event_notify``,
``mpi.coll.allreduce``, ...), operands and flags come from the protocol
table (:mod:`repro.lint.protocol`): peer rank, payload bytes, event
identity, enclosing-loop trip symbols, and what the Fig. 2 matcher needs
(CAF put vs. blocking into raw MPI). A call the table has no row for, and
any Python or numpy construct the corpus of apps, examples and fixtures
does not use, evaluates to ``UNKNOWN``: the rules stay quiet on it.

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
* ``stale-list`` — a list method other than ``append`` was called: the
  modelled list keeps its old contents, so event/recv accounting is off.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .. import protocol
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

    kind: str  # the protocol row's ``emits``, e.g. "caf.coarray_write"
    method: str  # source-level method name, e.g. "write_async"
    line: int
    col: int
    func: str
    rank: int
    peer: int | None = None  # target (puts/notify) or source (reads/recv)
    nbytes: int | None = None
    event: tuple[int, int] | None = None  # (event-array uid, slot)
    count: int = 1  # wait consumption count
    bounded: bool = False  # timed wait / trywait — cannot hang
    tentative: bool = False  # under an unresolved guard
    is_sync: bool = False  # CAF synchronization point (completes CAF traffic)
    is_mpi_block: bool = False  # blocks inside a non-CAF runtime (raw MPI/GASNet)
    is_caf_put: bool = False  # CAF traffic needing target-side AM progress
    is_message: bool = False  # one latency-bound message per call (CAF014)
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
                "stale-list",
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
    "len",
    "max",
    "min",
    "abs",
    "sum",
    "range",
    "list",
    "dict",
    "round",
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

#: Names that evaluate to a runtime world class -> its handle kind.
_WORLD_CLASSES = {"MpiWorld": "mpi_world", "GasnetWorld": "gasnet_world"}

#: Rows the interpreter emits outside ``protocol_call``: a ``with
#: img.finish()`` block's boundaries, the notify an async op's
#: ``src_event``/``dest_event`` posts, and ``sendrecv``'s two halves.
_FINISH = protocol.ROWS["image", "finish"]
_NOTIFY = protocol.ROWS["event", "notify"]
_SEND = protocol.ROWS["comm", "send"]
_RECV = protocol.ROWS["comm", "recv"]


class _Call(NamedTuple):
    """One protocol call site, as the row builders see it."""

    handle: HandleVal
    args: list[Any]
    kwargs: dict[str, Any]
    node: ast.Call


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
    guarded = {
        id(node)
        for stmt in model.tree.body
        if _is_main_guard(stmt)
        for node in ast.walk(stmt)
    }
    called = {
        node.func.id
        for node in model.nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and id(node) not in guarded
    }
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
    for node in model.nodes:
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
        #: Per-run singletons (the MPI/GASNet worlds and rank facades,
        #: COMM_WORLD, the cluster), by handle kind.
        self._singletons: dict[str, HandleVal] = {}
        #: Modeled Cluster.shared() singletons, keyed by the (hashable)
        #: shared key so repeated lookups alias one value.
        self._cluster_shared: dict[Any, Any] = {}
        self.env: Env = compiler.module_env

    # -- entry ----------------------------------------------------------

    def run_entry(self, fn: FunctionInfo) -> RankStream:
        img = HandleVal("image", uid=next(self.uid), meta={"rank": self.rank})
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

    def _default_for(self, node: ast.FunctionDef, name: str, env: Env | None = None) -> Any:
        """``name``'s default in ``node``'s signature, evaluated in ``env``
        (the module's by default); UNKNOWN if it has none or it fails."""
        env = env if env is not None else self.c.module_env
        args = node.args
        positional = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        defaults = list(args.defaults)
        if name in positional and defaults:
            offset = len(positional) - len(defaults)
            idx = positional.index(name)
            if idx >= offset:
                try:
                    return self.eval(defaults[idx - offset], env)
                except Exception:
                    return UNKNOWN
        for kw, default in zip(args.kwonlyargs, args.kw_defaults):
            if kw.arg == name and default is not None:
                try:
                    return self.eval(default, env)
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
        row: protocol.Row,
        method: str,
        node: ast.AST,
        *,
        peer: Any = None,
        nbytes: Any = None,
        event: tuple[int, int] | None = None,
        count: Any = 1,
        bounded: bool = False,
        note: str | None = None,
        kind: str | None = None,
    ) -> None:
        """Append ``row``'s op (of ``kind`` when the call records another
        kind than the row's); its matcher flags are the row's classes."""
        self.stream.ops.append(
            StreamOp(
                kind=kind or row.emits,
                method=method,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                func=self.current_func,
                rank=self.rank,
                peer=int(peer) if is_int(peer) else None,
                nbytes=int(nbytes) if is_int(nbytes) else None,
                event=event,
                count=int(count) if is_int(count) else 1,
                bounded=bounded,
                tentative=self.tentative > 0,
                is_sync="caf_sync" in row.classes,
                is_mpi_block="foreign_block" in row.classes,
                is_caf_put="caf_put" in row.classes,
                is_message="message" in row.classes,
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
        # Unmodelled statement kinds (Global, Import, Delete, a nested
        # ClassDef, ...) are no-ops.

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
        fn = _BINOP_FNS[type(stmt.op)]
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
        result = self.binop(fn, old, new)
        self.assign(stmt.target, result, env, value_node=stmt)

    def _stmt_FunctionDef(self, stmt: ast.FunctionDef, env: Env) -> None:
        env.set(stmt.name, FuncVal(stmt, stmt.name, closure=env))

    _stmt_AsyncFunctionDef = _stmt_FunctionDef

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
            if not broke:
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
                finishes.append(item.context_expr)
                self.emit(_FINISH, "finish_enter", item.context_expr)
        try:
            self.exec_stmts(stmt.body, env)
        finally:
            for node in reversed(finishes):
                self.emit(_FINISH, "finish_exit", node)

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
        if name in _BUILTINS:
            return BuiltinVal(name)
        if name in _WORLD_CLASSES:
            return self.singleton(_WORLD_CLASSES[name])
        return UNKNOWN

    def _eval_Attribute(self, node: ast.Attribute, env: Env) -> Any:
        obj = self.eval(node.value, env)
        return self.get_attr(obj, node.attr)

    def _eval_BinOp(self, node: ast.BinOp, env: Env) -> Any:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        return self.binop(_BINOP_FNS[type(node.op)], left, right)

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Env) -> Any:
        value = self.eval(node.operand, env)
        if isinstance(node.op, ast.Not):
            t = self.truthy(value)
            return UNKNOWN if t is None else (not t)
        if isinstance(node.op, ast.USub) and is_num(value):
            return -value
        if isinstance(node.op, ast.Invert) and isinstance(value, ArrayVal):
            return ArrayVal(value.shape, value.itemsize, None, mask=value.mask)
        return UNKNOWN

    def _eval_BoolOp(self, node: ast.BoolOp, env: Env) -> Any:
        is_and = isinstance(node.op, ast.And)
        last: Any = UNKNOWN
        for value_node in node.values:
            value = self.eval(value_node, env)
            t = self.truthy(value)
            if t is None:
                return UNKNOWN
            if t != is_and:  # short-circuit: a false `and` / a true `or`
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
        try:
            return bool(_CMP_FNS[type(op)](left, right))
        except TypeError:
            return None

    def _eval_Call(self, node: ast.Call, env: Env) -> Any:
        func = self.eval(node.func, env)
        # ``*xs`` evaluates to one UNKNOWN argument; ``**kw`` is dropped.
        args = [self.eval(arg, env) for arg in node.args]
        kwargs = {
            kw.arg: self.eval(kw.value, env) for kw in node.keywords if kw.arg is not None
        }
        return self.call(func, args, kwargs, node)

    def _eval_Tuple(self, node: ast.Tuple, env: Env) -> Any:
        return tuple(self.eval(e, env) for e in node.elts)

    def _eval_List(self, node: ast.List, env: Env) -> Any:
        return [self.eval(e, env) for e in node.elts]

    def _eval_Dict(self, node: ast.Dict, env: Env) -> Any:
        out: dict[Any, Any] = {}
        for key_node, value_node in zip(node.keys, node.values):
            key = UNKNOWN if key_node is None else self.eval(key_node, env)
            if is_unknown(key):  # also a ``**spread`` entry
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

    def _eval_ListComp(self, node: ast.ListComp, env: Env) -> Any:
        return self._comprehension(node, env, kind="list")

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
        if is_num(left) and is_num(right):
            try:
                return fn(left, right)
            except (ZeroDivisionError, ValueError, OverflowError, TypeError):
                return UNKNOWN
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
        if isinstance(obj, (RngVal, dict, list, tuple, str)):
            return MethodVal(obj, attr)
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
            if attr in ("float64", "float32", "int64", "int32", "uint64", "uint32",
                        "int8", "uint8", "bool_", "complex128", "complex64", "intp"):
                return DtypeVal(attr)
        return ModuleFn(mod.name, attr)

    def _array_attr(self, arr: ArrayVal, attr: str) -> Any:
        if attr == "size":
            return arr.size
        if attr == "shape":
            return tuple(d if is_int(d) else UNKNOWN for d in arr.shape)
        return MethodVal(arr, attr)

    def _handle_attr(self, handle: HandleVal, attr: str) -> Any:
        key = (handle.kind, attr)
        if key in (("image", "rank"), ("comm", "rank"), ("caf_team", "my_index")):
            return self.rank
        if key in (("image", "nranks"), ("comm", "size"), ("caf_team", "size")):
            return self.nranks
        if key == ("image", "team_world"):
            return self.singleton("caf_team")
        if key == ("image", "cluster"):
            return self.singleton("cluster")
        if key == ("mpi", "COMM_WORLD"):
            return self.singleton("comm")
        if attr == "local" and handle.kind in ("coarray", "window"):
            return self._local_view(handle)
        return MethodVal(handle, attr)

    @staticmethod
    def _local_view(handle: HandleVal) -> ArrayVal:
        """A coarray's or window's local memory: shape + itemsize, no data."""
        return ArrayVal(handle.meta.get("shape", (UNKNOWN,)),
                        handle.meta.get("itemsize", 8), None)

    def singleton(self, kind: str) -> HandleVal:
        """The run's one handle of ``kind`` (MPI/GASNet world and rank
        facades, COMM_WORLD, the cluster), created on first use."""
        if kind not in self._singletons:
            self._singletons[kind] = HandleVal(kind, uid=next(self.uid))
        return self._singletons[kind]

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
            return UNKNOWN
        self.escape_args(args, kwargs)
        return UNKNOWN

    def escape_args(self, args: list[Any], kwargs: dict[str, Any]) -> None:
        def visit(value: Any) -> None:
            if isinstance(value, HandleVal) and value.kind == "event":
                if not value.escaped:
                    value.escaped = True
                    self.warn(f"escape:event#{value.uid}")
            elif isinstance(value, (list, tuple)):
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
        # A parameter the call does not pass is bound to its default, which
        # is evaluated where the function was defined (UNKNOWN if it has none
        # or it does not evaluate): bound explicitly, it cannot read an outer
        # variable.
        def passed_or_default(name: str) -> Any:
            if name in kwargs:
                return kwargs[name]
            return self._default_for(fv.node, name, fv.closure)

        for i, name in enumerate(positional):
            env.set(name, args[i] if i < len(args) else passed_or_default(name))
        if fn_args.vararg is not None:
            env.set(fn_args.vararg.arg, tuple(args[len(positional):]))
        for kw in fn_args.kwonlyargs:
            env.set(kw.arg, passed_or_default(kw.arg))
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
        if name == "len":
            if args and isinstance(args[0], (list, tuple, dict, str, range)):
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
            if len(args) > 1 and all(is_num(a) for a in args):
                return {"max": max, "min": min, "sum": sum}[name](args)
            return UNKNOWN
        if name == "list":
            items = self.concrete_iter(args[0]) if args else []
            return UNKNOWN if items is None else items
        if name == "dict" and not args:
            return dict(kwargs)
        return UNKNOWN

    # -- iteration ------------------------------------------------------

    def concrete_iter(self, value: Any) -> list[Any] | None:
        if isinstance(value, range):
            if len(value) > _MAX_CONCRETE_ELEMS:
                return None
            return list(value)
        if isinstance(value, (list, tuple)):
            return list(value)
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
        if isinstance(obj, ArrayVal):
            return self._array_getitem(obj, key)
        if isinstance(obj, dict):
            if is_unknown(key):
                return UNKNOWN
            try:
                return obj.get(key, UNKNOWN)
            except TypeError:
                return UNKNOWN
        if isinstance(obj, (list, tuple, str, range)) and is_int(key):
            try:
                return self._wrap_np(obj[int(key)])
            except IndexError:
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
            elif isinstance(part, ArrayVal) and part.mask and is_int(dim):
                self.warn("mask-half")
                out.append(max(int(dim) // 2, 1))
                pos += 1
            else:  # an Ellipsis, an index array, a mask over an unknown extent
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
        if isinstance(obj, list) and name == "append":
            obj.append(args[0] if args else UNKNOWN)
            return None
        # Not modelled (every other list method, str methods, methods of
        # unknown objects): whatever the receiver or the arguments hold is
        # handed to code the linter cannot see, and a list the call may
        # have mutated keeps its old contents — so no counting on this run.
        self.escape_args([obj, *args], kwargs)
        if isinstance(obj, list):
            self.warn("stale-list")
        return UNKNOWN

    def _dict_method(self, obj: dict, name: str, args: list[Any]) -> Any:
        if name == "items":
            return [(k, v) for k, v in obj.items()]
        if name == "get":
            key = args[0] if args else UNKNOWN
            if is_unknown(key):
                return UNKNOWN
            default = args[1] if len(args) > 1 else None
            try:
                return obj.get(key, default)
            except TypeError:
                return UNKNOWN
        if name == "setdefault":
            key = args[0] if args else UNKNOWN
            if not is_unknown(key):
                try:
                    return obj.setdefault(key, args[1] if len(args) > 1 else None)
                except TypeError:
                    return UNKNOWN
            return UNKNOWN
        return UNKNOWN

    def array_method(
        self, arr: ArrayVal, name: str, args: list[Any], kwargs: dict[str, Any]
    ) -> Any:
        if name == "reshape":
            shape = args[0] if len(args) == 1 and isinstance(args[0], (tuple, list)) else tuple(args)
            return ArrayVal(self._resolve_shape(shape, arr.size), arr.itemsize, None, arr.mask)
        if name == "astype":
            dtype = args[0] if args else kwargs.get("dtype")
            return ArrayVal(arr.shape, self._itemsize_from(dtype, arr.itemsize), None)
        if name in ("copy", "view", "conj", "conjugate"):
            return ArrayVal(arr.shape, arr.itemsize,
                            arr.data.copy() if arr.data is not None else None, arr.mask)
        if name == "transpose":
            return ArrayVal(tuple(reversed(arr.shape)), arr.itemsize, None, arr.mask)
        if name == "tolist":
            n = arr.shape[0] if len(arr.shape) == 1 and is_int(arr.shape[0]) else None
            if n is not None and n <= _MAX_CONCRETE_ELEMS:
                return [UNKNOWN] * int(n)
        return UNKNOWN  # reductions and every other method: data-dependent

    @staticmethod
    def _resolve_shape(shape: Any, total: Any) -> tuple[Any, ...]:
        dims = list(shape) if isinstance(shape, (tuple, list)) else [shape]
        if dims == [-1] and is_int(total):
            return (int(total),)
        return tuple(int(d) if is_int(d) and d != -1 else UNKNOWN for d in dims)

    @staticmethod
    def _itemsize_from(dtype: Any, default: int = 8) -> int:
        if isinstance(dtype, DtypeVal):
            return itemsize_of(dtype.name, default)
        return default

    def rng_method(self, name: str, args: list[Any], kwargs: dict[str, Any]) -> Any:
        size = kwargs.get("size")
        if size is None and name in ("standard_normal", "random") and args:
            size = args[0]
        if size is not None and name in (
            "integers", "standard_normal", "random", "uniform", "normal",
            "choice", "permutation", "exponential", "poisson",
        ):
            itemsize = 8
            if name == "integers":
                itemsize = self._itemsize_from(kwargs.get("dtype"), 8)
            if is_int(size):
                return ArrayVal((int(size),), itemsize, None)
            if isinstance(size, (tuple, list)):
                return ArrayVal(tuple(int(d) if is_int(d) else UNKNOWN for d in size),
                                itemsize, None)
            return ArrayVal((UNKNOWN,), itemsize, None)
        return UNKNOWN

    # -- numpy module functions -----------------------------------------

    def numpy_call(
        self, fn: ModuleFn, args: list[Any], kwargs: dict[str, Any], node: ast.Call
    ) -> Any:
        name = fn.name
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
            value = args[0] if args else UNKNOWN
            if isinstance(value, ArrayVal):
                if "dtype" in kwargs:
                    return ArrayVal(value.shape, itemsize, None, value.mask)
                return ArrayVal(value.shape, value.itemsize, value.data, value.mask)
            if isinstance(value, (list, tuple)):
                # A flat list keeps its length; nested structure is not modelled.
                nested = any(isinstance(v, (list, tuple, ArrayVal)) for v in value)
                return ArrayVal((UNKNOWN if nested else len(value),), itemsize, None)
            return UNKNOWN
        if name == "arange":
            if all(is_num(a) for a in args) and 1 <= len(args) <= 3:
                try:
                    data = np.arange(*args)
                except (ValueError, TypeError):
                    return UNKNOWN
                if data.size <= _MAX_CONCRETE_ELEMS and "dtype" not in kwargs:
                    return ArrayVal(data.shape, data.dtype.itemsize, data)
                return ArrayVal((int(data.size),), itemsize, None)
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
                if data.size <= _MAX_CONCRETE_ELEMS:
                    return ArrayVal(data.shape, data.dtype.itemsize, data)
                return ArrayVal((int(data.size),), 8, None)
            return ArrayVal((UNKNOWN,), 8, None)
        if name in ("concatenate", "vstack", "hstack", "stack"):
            parts = self.concrete_iter(args[0]) if args else None
            if parts is None or not all(isinstance(p, ArrayVal) for p in parts):
                return ArrayVal((UNKNOWN,), 8, None)
            itemsize = max((a.itemsize for a in parts), default=8)
            if name in ("concatenate", "hstack") and all(
                len(a.shape) == 1 for a in parts
            ):
                total: Any = 0
                for a in parts:
                    d = a.shape[0]
                    if not is_int(d):
                        total = UNKNOWN
                        break
                    total += int(d)
                return ArrayVal((total,), itemsize, None)
            return ArrayVal((UNKNOWN,), itemsize, None)
        if name in ("log2", "log", "log10", "sqrt", "exp", "sin", "cos", "tan",
                    "floor", "ceil", "abs", "absolute", "sign", "round", "rint"):
            mathfn = getattr(math, {"abs": "fabs", "absolute": "fabs"}.get(name, name), None)
            if args and is_num(args[0]) and mathfn is not None:
                try:
                    return mathfn(args[0])
                except (ValueError, OverflowError):
                    return UNKNOWN
            if args and isinstance(args[0], ArrayVal):
                return args[0].like()
            return UNKNOWN
        if name in ("maximum", "minimum", "add", "subtract", "multiply", "divide",
                    "mod", "power", "hypot", "arctan2"):
            if len(args) == 2:
                npfn = getattr(np, name)
                return self.binop(lambda x, y: npfn(x, y), args[0], args[1])
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
        return UNKNOWN  # reductions, predicates, `where`, dtype constructors, ...

    # -- protocol op emission -------------------------------------------
    #
    # What a runtime call is — the op it emits, from which operands, with
    # which flags, and what it hands back — is a row of repro.lint.protocol.
    # The ``_ret_*`` methods below are the named builders a row's
    # ``returns`` column points to.

    def protocol_call(
        self, handle: HandleVal, method: str, args: list[Any],
        kwargs: dict[str, Any], node: ast.Call,
    ) -> Any:
        row = protocol.ROWS.get((handle.kind, method))
        if row is None:
            # Not modelled: the arguments (and an event-array receiver) are
            # paired by code the linter cannot see.
            self.escape_args([handle, *args], kwargs)
            return UNKNOWN
        call = _Call(handle, args, kwargs, node)
        result = getattr(self, f"_ret_{row.returns}")(call)
        if row.emits is not None and "scoped" not in row.classes:
            peer = self.emit_call(row, call, result=result)
            if "async" in row.classes:
                self._post_async_events(kwargs, peer, node)
        if row.warn is not None:
            self.warn(row.warn)
        if row.escapes:
            self.escape_args([kwargs.get(name) for name in row.escapes], {})
        return result

    def emit_call(
        self, row: protocol.Row, call: _Call, *, method: str | None = None,
        result: Any = None,
    ) -> Any:
        """Emit ``row``'s op for one call; returns the resolved peer."""
        meta = call.handle.meta
        peer = self.rank if row.peer == "self" else self._operand(row.peer, call)
        if row.buf is not None:
            nbytes = self.nbytes_of(self._operand(row.buf, call), meta.get("itemsize"))
        elif row.nbytes == "result":
            nbytes = result.nbytes if isinstance(result, ArrayVal) else UNKNOWN
        else:
            nbytes = row.nbytes
        event = None
        if row.slot is not None:
            slot = self._operand(row.slot, call)
            event = (call.handle.uid, int(slot) if is_int(slot) else -1)
        model = meta.get("memory_model")
        runs = self._operand(row.runs, call)
        one_run = isinstance(runs, (list, tuple)) and len(runs) == 1
        self.emit(
            row, method or row.method, call.node, peer=peer, nbytes=nbytes, event=event,
            kind=protocol.ONE_RUN[row.emits] if one_run else None,
            count=self._operand(row.count, call, 1),
            bounded="bounded" in row.classes or call.kwargs.get("timeout") is not None,
            note=model if isinstance(model, str) else None,
        )
        return peer

    @staticmethod
    def _operand(operand: protocol.Operand | None, call: _Call, missing: Any = None) -> Any:
        """The value a call passes for a row's ``(index, keyword[, default])``."""
        if operand is None:
            return missing
        idx, name, *default = operand
        if idx < len(call.args):
            return call.args[idx]
        return call.kwargs.get(name, *default)

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
                        _NOTIFY, f"async:{key}", node, peer=peer, nbytes=0,
                        event=(ev.uid, int(slot) if is_int(slot) else 0),
                    )
                elif pair is not None:
                    self.escape_args([pair], {})

    def _ret_none(self, call: _Call) -> Any:
        return None

    def _ret_unknown(self, call: _Call) -> Any:
        return UNKNOWN

    def _ret_self(self, call: _Call) -> Any:
        return call.handle  # MpiWorld.get(cluster) / GasnetWorld.get(cluster) chains

    def _ret_rank(self, call: _Call) -> Any:
        return self.rank if not call.args else UNKNOWN  # a team argument: not modelled

    def _ret_nranks(self, call: _Call) -> Any:
        return self.nranks if not call.args else UNKNOWN

    def _ret_mpi(self, call: _Call) -> Any:
        return self.singleton("mpi")

    def _ret_gasnet(self, call: _Call) -> Any:
        return self.singleton("gasnet")

    def _ret_coarray(self, call: _Call) -> Any:
        shape = self._operand((0, "shape", UNKNOWN), call)
        dims = shape if isinstance(shape, (tuple, list)) else (shape,)
        itemsize = self._itemsize_from(self._operand((1, "dtype"), call), 8)
        return HandleVal(
            "coarray", uid=next(self.uid),
            meta={"shape": tuple(int(d) if is_int(d) else UNKNOWN for d in dims),
                  "itemsize": itemsize,
                  "line": call.node.lineno},
        )

    def _ret_event(self, call: _Call) -> Any:
        nslots = self._operand((0, "nslots", 1), call)
        return HandleVal(
            "event", uid=next(self.uid),
            meta={"nslots": int(nslots) if is_int(nslots) else 1,
                  "line": call.node.lineno},
        )

    def _ret_window(self, call: _Call) -> Any:
        memory_model = call.kwargs.get("memory_model", "unified")
        nelems = self._operand((0, "nelems"), call)
        return HandleVal(
            "window", uid=next(self.uid),
            meta={"memory_model": memory_model if isinstance(memory_model, str)
                  else UNKNOWN,
                  "shape": (int(nelems) if is_int(nelems) else UNKNOWN,),
                  "itemsize": self._itemsize_from(call.kwargs.get("dtype"), 8),
                  "line": call.node.lineno},
        )

    def _ret_window_local(self, call: _Call) -> Any:
        return self._local_view(call.handle)

    def _ret_finish(self, call: _Call) -> Any:
        return HandleVal("finish", uid=next(self.uid))

    def _ret_spawned(self, call: _Call) -> Any:
        self.escape_args(call.args[2:], call.kwargs)  # the shipped function's arguments
        return UNKNOWN

    def _ret_read(self, call: _Call) -> Any:
        """``read(target, offset=0, count=None)``: count defaults to the
        rest of the coarray past ``offset``."""
        offset = self._operand((1, "offset", 0), call)
        count = self._operand((2, "count"), call)
        if count is None:
            total = self._local_view(call.handle).size
            count = max(total - int(offset), 0) if is_int(total) and is_int(offset) else UNKNOWN
        n = int(count) if is_int(count) else UNKNOWN
        return ArrayVal((n,), call.handle.meta.get("itemsize", 8), None)

    def _ret_read_section(self, call: _Call) -> Any:
        key = self._operand((1, "key", UNKNOWN), call)
        result = self._array_getitem(self._local_view(call.handle), key)
        if isinstance(result, ArrayVal):
            return result
        return ArrayVal((UNKNOWN,), call.handle.meta.get("itemsize", 8), None)

    def _ret_sendrecv(self, call: _Call) -> Any:
        """``sendrecv(sendbuf, dest, recvbuf, source)`` is the send row's op
        over the first two operands and the recv row's over the last two."""
        for row, operands in ((_SEND, call.args[:2]), (_RECV, call.args[2:])):
            self.emit_call(row, call._replace(args=operands), method="sendrecv")
        return UNKNOWN

    def _ret_shared(self, call: _Call) -> Any:
        """``Cluster.shared(key, factory)`` is a get-or-create singleton:
        evaluate the factory once per key so the produced value (shape,
        itemsize) flows through — apps share their generated input arrays
        this way."""
        key = self._operand((0, "key"), call)
        factory = self._operand((1, "factory"), call)
        try:
            hit = key in self._cluster_shared
        except TypeError:
            return self.call(factory, [], {}, call.node)
        if not hit:
            self._cluster_shared[key] = self.call(factory, [], {}, call.node)
        return self._cluster_shared[key]
