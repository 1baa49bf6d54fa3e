"""Symbolic scalar expressions over ``P`` (the image count) and named
problem-size parameters.

The stream compiler keeps loop trip counts and per-op cost orders
*symbolic*: a ``Sym`` is a tiny expression tree built from an AST
fragment (a ``range()`` argument, a payload size) whose free variables
are the image count (``img.nranks`` / ``num_images()`` become the
reserved variable ``P``) and the enclosing function's parameters. Two
consumers:

* the **perf rule pack** asks for the asymptotic order of an expression
  in ``P`` (:meth:`Sym.order_in_p`) and for a human-readable form
  (:meth:`Sym.text`) to annotate findings with predicted costs;
* the **estimator / matcher** evaluate trips concretely
  (:meth:`Sym.evaluate`) under a binding environment.

Anything the translator cannot model becomes :data:`UNKNOWN`, which
evaluates to ``None`` and has unknown order — rules stay quiet on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: Reserved variable name for the image count.
P = "P"

#: Order-in-P lattice: constants < log P < linear < polynomial-or-worse.
ORDER_CONST = 0
ORDER_LOG = 1
ORDER_LINEAR = 2
ORDER_POLY = 3
ORDER_UNKNOWN = -1

_ORDER_TEXT = {
    ORDER_CONST: "O(1)",
    ORDER_LOG: "O(log P)",
    ORDER_LINEAR: "O(P)",
    ORDER_POLY: "O(P^k)",
    ORDER_UNKNOWN: "O(?)",
}


def order_text(order: int) -> str:
    return _ORDER_TEXT.get(order, "O(?)")


@dataclass(frozen=True)
class Sym:
    """One symbolic scalar: ``kind`` is ``const`` / ``var`` / ``op`` /
    ``call`` / ``unknown``; ``args`` holds children (Sym) or the payload
    (value for ``const``, name for ``var``, operator symbol first for
    ``op``/``call``)."""

    kind: str
    args: tuple[Any, ...] = ()

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(value: float | int) -> "Sym":
        return Sym("const", (value,))

    @staticmethod
    def var(name: str) -> "Sym":
        return Sym("var", (name,))

    @staticmethod
    def op(symbol: str, *children: "Sym") -> "Sym":
        if any(c.kind == "unknown" for c in children):
            return UNKNOWN
        return Sym("op", (symbol, *children))

    @staticmethod
    def call(fn: str, *children: "Sym") -> "Sym":
        if any(c.kind == "unknown" for c in children):
            return UNKNOWN
        return Sym("call", (fn, *children))

    # -- queries --------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.kind == "const"

    @property
    def const_value(self) -> float | int | None:
        return self.args[0] if self.kind == "const" else None

    def evaluate(self, env: Mapping[str, float | int]) -> float | int | None:
        """Concrete value under ``env``, or None when underdetermined."""
        if self.kind == "const":
            return self.args[0]
        if self.kind == "var":
            return env.get(self.args[0])
        if self.kind == "op":
            symbol = self.args[0]
            vals = [c.evaluate(env) for c in self.args[1:]]
            if any(v is None for v in vals):
                return None
            try:
                return _BINOPS[symbol](*vals)
            except (ZeroDivisionError, ValueError, OverflowError):
                return None
        return None  # a call (log2, sqrt, ...) or an unknown: underdetermined

    def order_in_p(self) -> int:
        """Asymptotic order of this expression in the image count ``P``."""
        if self.kind == "const":
            return ORDER_CONST
        if self.kind == "var":
            return ORDER_LINEAR if self.args[0] == P else ORDER_CONST
        if self.kind == "op":
            symbol = self.args[0]
            orders = [c.order_in_p() for c in self.args[1:]]
            if any(o == ORDER_UNKNOWN for o in orders):
                return ORDER_UNKNOWN
            if symbol in ("+", "-", "max", "min"):
                return max(orders)
            if symbol == "*":
                nontrivial = [o for o in orders if o != ORDER_CONST]
                if not nontrivial:
                    return ORDER_CONST
                return nontrivial[0] if len(nontrivial) == 1 else ORDER_POLY
            return ORDER_UNKNOWN  # ratios, powers, shifts: stay quiet
        if self.kind == "call":
            fn = self.args[0]
            orders = [c.order_in_p() for c in self.args[1:]]
            if any(o == ORDER_UNKNOWN for o in orders):
                return ORDER_UNKNOWN
            if fn in ("log2", "log"):
                inner = orders[0]
                return ORDER_LOG if inner != ORDER_CONST else ORDER_CONST
            return ORDER_UNKNOWN
        return ORDER_UNKNOWN

    def text(self) -> str:
        if self.kind == "const":
            return str(self.args[0])
        if self.kind == "var":
            return str(self.args[0])
        if self.kind == "op":
            symbol = self.args[0]
            parts = [c.text() for c in self.args[1:]]
            if symbol in ("max", "min"):
                return f"{symbol}({', '.join(parts)})"
            joined = f" {symbol} ".join(parts)
            return f"({joined})" if len(parts) > 1 else joined
        if self.kind == "call":
            fn = self.args[0]
            return f"{fn}({', '.join(c.text() for c in self.args[1:])})"
        return "?"


UNKNOWN = Sym("unknown")
ONE = Sym.const(1)

_BINOPS: dict[str, Callable[..., Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "**": lambda a, b: a**b,
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
    "max": lambda a, b: max(a, b),
    "min": lambda a, b: min(a, b),
}

#: Calls that translate into a ``call`` node (``max``/``min`` of two: an op).
_CALLS = ("log2", "log", "sqrt", "int", "ceil", "floor", "abs", "max", "min")

_AST_BINOPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
    ast.LShift: "<<",
    ast.RShift: ">>",
}

#: Names treated as the image count when translating expressions.
_P_ATTRS = ("nranks", "num_images")


def from_ast(
    node: ast.AST, params: "set[str] | Mapping[str, Sym] | None" = None
) -> Sym:
    """Translate a scalar expression AST into a :class:`Sym`.

    ``params`` names the free variables allowed to survive translation
    (typically the enclosing function's parameters). When given as a
    mapping, a matching name resolves to the mapped ``Sym`` instead of a
    fresh variable, so locals bound to parameter expressions stay
    symbolic. ``img.nranks`` / ``num_images()`` / ``nranks`` become the
    reserved variable ``P``. Unsupported shapes become UNKNOWN.
    """
    params = params if params is not None else set()
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return Sym.const(node.value)
    if isinstance(node, ast.Name):
        if node.id in ("nranks", "num_images", "nprocs"):
            return Sym.var(P)
        if node.id in params:
            if isinstance(params, Mapping):
                return params[node.id]
            return Sym.var(node.id)
        return UNKNOWN
    if isinstance(node, ast.Attribute):
        if node.attr in _P_ATTRS:
            return Sym.var(P)
        if node.attr == "rank":
            return Sym.var("rank")
        return UNKNOWN
    if isinstance(node, ast.BinOp):
        symbol = _AST_BINOPS.get(type(node.op))
        if symbol is None:
            return UNKNOWN
        return Sym.op(symbol, from_ast(node.left, params), from_ast(node.right, params))
    if isinstance(node, ast.Call):
        fn = _call_name(node)
        if fn in ("num_images", "this_image"):
            return Sym.var(P) if fn == "num_images" else Sym.var("rank")
        if fn in _CALLS and not node.keywords:
            children = [from_ast(a, params) for a in node.args]
            if fn in ("max", "min") and len(children) == 2:
                return Sym.op(fn, *children)
            if len(children) == 1:
                return Sym.call(fn, children[0])
        return UNKNOWN
    return UNKNOWN


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def trip_from_range(call: ast.Call, params: set[str] | None = None) -> Sym:
    """Symbolic trip count of a ``range(...)`` call (UNKNOWN otherwise)."""
    if _call_name(call) != "range" or call.keywords:
        return UNKNOWN
    args = call.args
    if len(args) == 1:
        return from_ast(args[0], params)
    if len(args) == 2:
        return Sym.op("-", from_ast(args[1], params), from_ast(args[0], params))
    return UNKNOWN  # a stepped range
