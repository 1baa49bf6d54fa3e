"""The artifact format, decided once: the canonical writer, the field
checker, and one table that says how each kind of artifact is recognised,
validated, labelled and, for ``diff``, flattened. ``python -m repro.obs
validate`` / ``diff`` and ``python -m repro.ir validate`` read files through
it. SARIF (OASIS's schema, owned by ``repro.lint``) and checkpoint sidecars
(restart state only ``CheckpointStore.load`` reads) are not rows.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple, TypeVar


class SchemaError(ValueError):
    """A file does not conform to its artifact kind's schema."""


def dumps(data: Any, *, line: bool = False) -> str:
    """Canonical JSON: sorted keys, indent 2 (one line for a telemetry
    record), trailing newline."""
    return json.dumps(data, indent=None if line else 2, sort_keys=True) + "\n"


def write(path: str | os.PathLike, data: Any) -> str:
    """Write ``data`` to ``path`` as canonical JSON; returns the text."""
    text = dumps(data)
    pathlib.Path(path).write_text(text)
    return text


def read_json(path: str | os.PathLike, *, first_line: bool = False) -> Any:
    """Parse the JSON at ``path`` (with ``first_line``, a stream's header)."""
    with open(path) as fh:
        text = fh.readline() if first_line else fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def checker(what: str) -> Callable[[bool, str], None]:
    """``need(cond, field)``: raises ``SchemaError("invalid <what>: <field>")``
    unless ``cond``."""

    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise SchemaError(f"invalid {what}: {msg}")

    return need


def require(data: Any, what: str, fields: dict[str, Any], *, at: str = "") -> None:
    """``data`` (the object at ``at`` in a ``what``) is an object and each
    dotted field in ``fields`` is present with one of the given types."""
    need = checker(what)
    need(isinstance(data, dict), at or "not a JSON object")
    for name, types in fields.items():
        node = data
        for key in name.split("."):
            node = node.get(key) if isinstance(node, dict) else None
        need(isinstance(node, types), f"{at}.{name}" if at else name)


D = TypeVar("D", bound="Document")


@dataclass
class Document:
    """An artifact held as its canonical dict (RunReport, ScalingReport);
    a subclass supplies :meth:`validate`."""

    data: dict[str, Any]

    @staticmethod
    def validate(data: Any) -> None:
        raise NotImplementedError

    @property
    def meta(self) -> dict[str, Any]:
        return self.data["meta"]

    def to_json(self, path: str | None = None) -> str:
        """Canonical JSON text; optionally written to ``path``."""
        return dumps(self.data) if path is None else write(path, self.data)

    @classmethod
    def load(cls: type[D], path: str) -> D:
        return cls.from_dict(read_json(path))

    @classmethod
    def from_dict(cls: type[D], data: dict[str, Any]) -> D:
        cls.validate(data)
        return cls(data)


def _op_rows(out: dict[str, float], kinds: dict[str, Any]) -> dict[str, float]:
    for kind, s in kinds.items():
        out[f"ops.{kind}.calls"] = s["calls"]
        out[f"ops.{kind}.bytes"] = s["bytes"]
        out[f"ops.{kind}.time_s"] = s["time"]
    return out


def flatten_report(data: dict[str, Any]) -> dict[str, float]:
    """A run report's scalar rows: makespan, per-category seconds and counts,
    per-kind calls/bytes/time, counters, fabric totals, critical path."""
    out: dict[str, float] = {"meta.makespan": data["meta"]["makespan"]}
    for cat, v in data["profiler"]["breakdown"].items():
        out[f"profiler.{cat}.mean_s"] = v
    for cat, v in data["profiler"]["counts"].items():
        out[f"profiler.{cat}.count"] = v
    _op_rows(out, data["ops"]["kinds"])
    for name, v in data.get("counters", {}).items():
        out[f"counters.{name}"] = v
    out["fabric.messages"] = data["fabric"]["messages"]
    out["fabric.bytes"] = data["fabric"]["bytes"]
    cp = data.get("critical_path")
    if cp:
        for cat, v in cp["by_category"].items():
            out[f"critical_path.{cat}.s"] = v
    return out


def flatten_replay(data: dict[str, Any]) -> dict[str, float]:
    """A replay result's rows, named as a run report's: a replay diffs
    against another replay or the live run it re-prices."""
    return _op_rows({"meta.makespan": data["makespan"]}, data["op_totals"])


class Kind(NamedTuple):
    name: str
    mark: str  # the ``schema`` id a file of this kind carries, or a key only it has
    fields: dict[str, Any] = {}  # required fields -> types (see :func:`require`)
    #: Deeper check given the path and parsed JSON (a stream: its header
    #: line); returns what the label adds in parentheses, or None.
    check: Callable[[pathlib.Path, Any], str | None] | None = None
    flatten: Callable[[dict[str, Any]], dict[str, float]] | None = None  # rows ``diff`` compares


@functools.cache
def kinds() -> tuple[Kind, ...]:
    """One row per artifact kind (built on first use: the deeper checks live
    beside the code that writes each kind)."""
    from repro.ir.replay import SCHEMA_NAME as REPLAY, check_trace
    from repro.ir.sweep import SCHEMA_NAME as SWEEP
    from repro.obs import live, report, scaling
    from repro.resilience.chaos import SCHEMA_NAME as LEDGER

    def ir_trace(path: pathlib.Path, _data: Any) -> str:
        trace, problems = check_trace(path)
        if problems:
            raise SchemaError("invalid IR trace: " + "; ".join(problems))
        return f"{trace.nops} ops, makespan reproduced"

    return (
        Kind("run report", report.SCHEMA_NAME, flatten=flatten_report,
             check=lambda _path, data: report.validate_report(data)),
        Kind("scaling report", scaling.SCHEMA_NAME,
             check=lambda _path, data: scaling.validate_scaling_report(data)),
        Kind("telemetry", live.SCHEMA_NAME,
             check=lambda path, _data: f"{len(live.read_telemetry(path)[1])} snapshot(s)"),
        Kind("IR trace", "ir_version", check=ir_trace),
        Kind("replay result", REPLAY, {"nranks": int, "makespan": float, "op_totals": dict},
             flatten=flatten_replay),
        Kind("sweep summary", SWEEP, {"nranks": int, "base_spec": str, "points": list},
             check=lambda _path, data: f"{len(data['points'])} point(s)"),
        Kind("chaos ledger", LEDGER, {"version": int, "config": dict, "counts": dict,
                                      "unexplained": int, "records": list},
             check=lambda _path, data: f"{len(data['records'])} case(s)"),
        Kind("chrome trace", "traceEvents", {"traceEvents": list},
             check=lambda _path, data: f"{len(data['traceEvents'])} event(s)"),
    )


class Checked(NamedTuple):
    kind: Kind
    data: dict[str, Any]  # the parsed file (a stream: its header line)
    label: str  # what ``python -m repro.obs validate`` prints


def check(path: pathlib.Path) -> Checked | None:
    """Recognise and validate the file at ``path``; None for a file this repo
    does not write. A :class:`SchemaError` names the file."""
    if path.suffix not in (".json", ".jsonl"):
        return None
    data = read_json(path, first_line=path.suffix == ".jsonl")
    if not isinstance(data, dict):
        return None
    for kind in kinds():
        if data.get("schema") == kind.mark or kind.mark in data:
            try:
                require(data, kind.name, kind.fields)
                detail = kind.check(path, data) if kind.check else None
            except SchemaError as exc:
                text = str(exc)
                raise SchemaError(text if str(path) in text else f"{path}: {text}") from exc
            return Checked(kind, data, f"{kind.name} ({detail})" if detail else kind.name)
    return None


def flatten(path: pathlib.Path) -> dict[str, float]:
    """The checked file's scalar rows (what ``python -m repro.obs diff``
    compares)."""
    found = check(path)
    rows = found.kind.flatten if found is not None else None
    if found is None or rows is None:
        diffable = " or ".join(kind.name for kind in kinds() if kind.flatten)
        raise SchemaError(f"{path}: not a {diffable}")
    return rows(found.data)
