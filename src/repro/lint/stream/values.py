"""Abstract runtime values for the per-rank stream interpreter.

The interpreter evaluates one rank's control flow with *concrete*
scalars wherever the program is deterministic in (rank, P, parameters)
and degrades to :class:`Unknown` where values are data-dependent.
Arrays are modeled by shape + itemsize; small arrays whose contents are
statically determined (``np.linspace`` bounds tables, index grids) carry
their concrete numpy data so slice bounds computed from them stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


class Unknown:
    """A value the interpreter cannot determine (data-dependent)."""

    __slots__ = ("note",)

    def __init__(self, note: str = ""):
        self.note = note

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<unknown {self.note}>" if self.note else "<unknown>"


#: Shared don't-care instance (notes only matter for targeted warnings).
UNKNOWN = Unknown()


def is_unknown(value: Any) -> bool:
    return isinstance(value, Unknown)


def is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_num(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


@dataclass
class ArrayVal:
    """A numpy array: shape (ints; None per-axis when data-dependent),
    itemsize, and — when every element is statically determined — the
    concrete data itself."""

    shape: tuple[Any, ...]
    itemsize: int = 8
    data: np.ndarray | None = None
    mask: bool = False

    @property
    def known_shape(self) -> bool:
        return all(is_int(d) for d in self.shape)

    @property
    def size(self) -> Any:
        if not self.known_shape:
            return UNKNOWN
        n = 1
        for d in self.shape:
            n *= int(d)
        return n

    @property
    def nbytes(self) -> Any:
        n = self.size
        return UNKNOWN if is_unknown(n) else n * self.itemsize

    def like(self, shape: tuple[Any, ...] | None = None) -> "ArrayVal":
        return ArrayVal(self.shape if shape is None else shape, self.itemsize, None)


@dataclass
class HandleVal:
    """A protocol object. ``kind`` is the receiver kind its calls are
    looked up under in :mod:`repro.lint.protocol`; ``uid`` identifies the
    allocation site so aliased handles account together; ``meta`` carries
    e.g. a coarray's or window's shape/itemsize or the event array's slot
    count."""

    kind: str  # image|coarray|event|mpi_world|mpi|comm|window|gasnet_world|gasnet|cluster|finish
    uid: int = -1
    meta: dict[str, Any] = field(default_factory=dict)
    escaped: bool = False


@dataclass
class InstanceVal:
    """An instance of a class defined in the linted module."""

    cls_name: str
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class FuncVal:
    """A function value: a module function, nested def (with captured
    environment), or bound method (``self_val`` set)."""

    node: Any  # ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    closure: "Env | None" = None
    self_val: Any = None


@dataclass
class RngVal:
    """A ``numpy.random.Generator``: draws produce data-unknown arrays."""

    seeded: bool = True


class Env:
    """A lexical environment with parent chaining (closures)."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Env | None" = None):
        self.vars: dict[str, Any] = {}
        self.parent = parent

    def get(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return UNKNOWN

    def has(self, name: str) -> bool:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False

    def set(self, name: str, value: Any) -> None:
        # Assign into the defining scope when rebinding a closure var the
        # *enclosing* function owns; otherwise bind locally. (Python's
        # actual rule needs `nonlocal`; apps only rebind locals, so the
        # closest-scope heuristic is right in practice.)
        self.vars[name] = value

    def child(self) -> "Env":
        return Env(self)


def promote_itemsize(a: Any, b: Any) -> int:
    ia = a.itemsize if isinstance(a, ArrayVal) else 8
    ib = b.itemsize if isinstance(b, ArrayVal) else 8
    return max(ia, ib)


def broadcast_shapes(sa: tuple[Any, ...], sb: tuple[Any, ...]) -> tuple[Any, ...]:
    """Numpy-style broadcast of two (possibly partially unknown) shapes."""
    out: list[Any] = []
    la, lb = len(sa), len(sb)
    for i in range(max(la, lb)):
        da = sa[la - 1 - i] if i < la else 1
        db = sb[lb - 1 - i] if i < lb else 1
        if is_int(da) and is_int(db):
            out.append(max(int(da), int(db)))
        elif is_int(da) and int(da) != 1:
            out.append(int(da))
        elif is_int(db) and int(db) != 1:
            out.append(int(db))
        else:
            out.append(da if not is_int(da) else db)
    out.reverse()
    return tuple(out)


DTYPE_ITEMSIZE: dict[str, int] = {
    "float64": 8,
    "float32": 4,
    "int64": 8,
    "int32": 4,
    "uint64": 8,
    "uint32": 4,
    "int8": 1,
    "uint8": 1,
    "bool": 1,
    "bool_": 1,
    "complex128": 16,
    "complex64": 8,
    "int": 8,
    "float": 8,
    "complex": 16,
    "intp": 8,
}


def itemsize_of(dtype_name: str | None, default: int = 8) -> int:
    if dtype_name is None:
        return default
    return DTYPE_ITEMSIZE.get(dtype_name, default)


#: Callable registered for numpy-module attributes the interpreter models.
NumpyFn = Callable[..., Any]
