"""repro.ir — typed op-stream IR, recorded traces, and vectorized replay.

One instrumented ``run_caf`` is captured into a deterministic, versioned
on-disk trace (:mod:`repro.ir.record` / :mod:`repro.ir.trace`); the replay
engine (:mod:`repro.ir.replay`) re-prices that trace under a different
:class:`~repro.sim.network.MachineSpec` — no fibers, no per-event context
switches, numpy-vectorized cost evaluation — so parameter sweeps that
re-executed the full simulator per point become near-free
(:mod:`repro.ir.sweep`, ``python -m repro.ir``).

The op vocabulary (:mod:`repro.ir.ops`) is shared with ``repro.lint``'s
static op streams: one typed model for both static facts and dynamic
traces.
"""

from repro.ir.costs import obs_formula, static_op_seconds
from repro.ir.ops import OP_NAMES
from repro.ir.trace import TRACE_VERSION, Trace, TraceVersionError
from repro.ir.replay import ReplayError, ReplayResult, replay, validate_trace
from repro.ir.sweep import SweepPoint, grid_points, run_sweep

__all__ = [
    "OP_NAMES",
    "obs_formula",
    "static_op_seconds",
    "TRACE_VERSION",
    "Trace",
    "TraceVersionError",
    "ReplayError",
    "ReplayResult",
    "replay",
    "validate_trace",
    "SweepPoint",
    "grid_points",
    "run_sweep",
]
