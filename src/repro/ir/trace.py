"""On-disk trace artifact: columnar op stream + JSON manifest.

A trace is two files sharing a stem: ``<stem>.npz`` (the numpy columns)
and ``<stem>.json`` (the manifest). Both are deterministic — same program,
same seed, same spec produce byte-identical manifests and equal arrays —
and versioned: loading an artifact written by a different format version
raises :class:`TraceVersionError` instead of misreading it.

Column layout (all arrays share length = op count, indexed by ``gseq``):

=========  ======  ====================================================
column     dtype   meaning (per op kind; see :mod:`repro.ir.ops`)
=========  ======  ====================================================
kind       u8      op kind
chain      u32     owning chain id
ck         u8      cost kind (SLEEP/CALL; 0 elsewhere)
a          i64     waitable id (ADD/WAITGE); XFER ``src*nranks+dst``;
                   CALL child chain
b          i64     ADD amount / WAITGE threshold; XFER child chain
c          i64     XFER nbytes
c0,c1,c2   f64     cost args (SLEEP/CALL); XFER: c0 = SRQ-rx flag
d          f64     recorded duration / delay / delivery time
=========  ======  ====================================================

Chains table: ``chain_kind`` (u8), ``chain_daemon`` (u8), ``chain_rank``
(i32, -1 for non-rank chains), ``chain_start`` (f64, absolute start for
proc chains; CB chains start when their parent op delivers).

Obs table (per ``Metrics.record`` call, in record order): ``obs_rank``
(i32), ``obs_kind`` (i32, index into ``manifest["obs_kinds"]``),
``obs_nbytes`` (i64), ``obs_seconds`` (f64).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ir import ops as _ops
from repro.obs.artifact import SchemaError, read_json, write

#: 2: events and channels record as counter ADD / WAITGE (kinds 3, 4, 8
#: and 9 retired); a version-1 trace must be re-recorded.
TRACE_VERSION = 2


class TraceVersionError(SchemaError):
    """The artifact was written by an incompatible trace-format version."""


class TraceError(SchemaError):
    """Malformed or unloadable trace artifact."""


OP_COLUMNS = ("kind", "chain", "ck", "a", "b", "c", "c0", "c1", "c2", "d")
CHAIN_COLUMNS = ("chain_kind", "chain_daemon", "chain_rank", "chain_start")
OBS_COLUMNS = ("obs_rank", "obs_kind", "obs_nbytes", "obs_seconds")


def _stem(path: str | pathlib.Path) -> pathlib.Path:
    p = pathlib.Path(path)
    return p.with_suffix("") if p.suffix in (".npz", ".json") else p


@dataclass
class Trace:
    """A recorded op-stream trace plus its manifest."""

    manifest: dict[str, Any]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    # -- convenience accessors ------------------------------------------

    @property
    def nops(self) -> int:
        return int(self.arrays["kind"].shape[0])

    @property
    def nchains(self) -> int:
        return int(self.arrays["chain_kind"].shape[0])

    @property
    def nranks(self) -> int:
        return int(self.manifest["nranks"])

    def recorded_spec(self):
        from repro.sim.network import MachineSpec

        spec = dict(self.manifest["spec"])
        # A field no code ever read, dropped from MachineSpec; traces
        # recorded before that still carry it.
        spec.pop("mpi_async_progress", None)
        return MachineSpec(**spec)

    # -- validation ------------------------------------------------------

    def check_structure(self) -> None:
        """Cheap structural invariants (CLI ``validate`` and :meth:`load` run
        this), every op and chain kind one this build replays included."""
        a = self.arrays
        for col in OP_COLUMNS + CHAIN_COLUMNS + OBS_COLUMNS:
            if col not in a:
                raise TraceError(f"missing column {col!r}")
        n = self.nops
        for col in OP_COLUMNS:
            if a[col].shape[0] != n:
                raise TraceError(f"column {col!r} length mismatch")
        nchains = self.nchains
        if n and int(a["chain"].max(initial=0)) >= nchains:
            raise TraceError("op references out-of-range chain")
        for k in (_ops.OP_CALL, _ops.OP_XFER):
            sel = a["kind"] == k
            child = (a["a"] if k == _ops.OP_CALL else a["b"])[sel]
            if child.size and (child.min() < 0 or child.max() >= nchains):
                raise TraceError("op references out-of-range child chain")
        if self.manifest.get("nops") != n:
            raise TraceError(f"manifest nops disagrees with the arrays' {n} ops")
        for what, col, index, known, retired in (
            ("op", "kind", "gseq", set(_ops.OP_NAMES), _ops.RETIRED_OP_KINDS),
            (
                "chain", "chain_kind", "chain",
                {_ops.CHAIN_PROC, _ops.CHAIN_CB}, _ops.RETIRED_CHAIN_KINDS,
            ),
        ):
            for k in np.unique(a[col]).tolist():
                if k in known:
                    continue
                kind = (
                    f"retired {what} kind {k} ({retired[k]})" if k in retired
                    else f"unknown {what} kind {k}"
                )
                first = int(np.argmax(a[col] == k))
                raise TraceError(
                    f"{kind} at {index} {first}: this build cannot replay it; "
                    "re-record the trace"
                )

    # -- persistence -----------------------------------------------------

    def save(self, path: str | pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
        """Write ``<stem>.npz`` + ``<stem>.json``; returns both paths."""
        stem = _stem(path)
        stem.parent.mkdir(parents=True, exist_ok=True)
        npz_path = stem.with_suffix(".npz")
        json_path = stem.with_suffix(".json")
        # Uncompressed: compressing cost ~30 ms a trace for files nobody
        # ships; load reads either form.
        np.savez(npz_path, **self.arrays)
        write(json_path, self.manifest)
        return npz_path, json_path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Trace":
        stem = _stem(path)
        npz_path = stem.with_suffix(".npz")
        json_path = stem.with_suffix(".json")
        if not json_path.exists():
            raise TraceError(f"missing manifest {json_path}")
        if not npz_path.exists():
            raise TraceError(f"missing array file {npz_path}")
        manifest = read_json(json_path)
        version = manifest.get("ir_version")
        if version != TRACE_VERSION:
            raise TraceVersionError(
                f"{json_path}: trace format version {version!r}, "
                f"this build reads version {TRACE_VERSION}; re-record the trace"
            )
        with np.load(npz_path) as data:
            arrays = {name: data[name] for name in data.files}
        trace = cls(manifest=manifest, arrays=arrays)
        trace.check_structure()
        return trace
