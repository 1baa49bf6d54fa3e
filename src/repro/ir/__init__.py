"""repro.ir — typed op-stream IR, recorded traces, and vectorized replay.

One instrumented ``run_caf`` is captured into a deterministic, versioned
on-disk trace (:mod:`repro.ir.record` / :mod:`repro.ir.trace`); the replay
engine (:mod:`repro.ir.replay`) re-prices that trace under a different
:class:`~repro.sim.network.MachineSpec` — no fibers, no per-event context
switches, numpy-vectorized cost evaluation — so parameter sweeps that
re-executed the full simulator per point become near-free
(:mod:`repro.ir.sweep`, ``python -m repro.ir``).

The op and chain kinds a trace is made of are :mod:`repro.ir.ops`. (The
*static* vocabulary — which runtime method is a collective, a put, a sync
— is ``repro.lint``'s alone and lives in :mod:`repro.lint.protocol`.)
"""

from repro.ir.costs import obs_formula
from repro.ir.ops import OP_NAMES
from repro.ir.trace import TRACE_VERSION, Trace, TraceVersionError
from repro.ir.replay import ReplayError, ReplayResult, replay, validate_trace
from repro.ir.sweep import SweepPoint, grid_points, run_sweep

__all__ = [
    "OP_NAMES",
    "obs_formula",
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
