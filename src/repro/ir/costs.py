"""What replay and the static estimator add on top of the cost model.

The cost model itself — the per-kind table and both evaluators — is
:mod:`repro.sim.costs`. This module holds the replay-side policy around
it: which spec fields change the communication *pattern* (and so only
warn), how recorded per-op totals are re-priced, and the first-order
models the static estimator uses for kinds no closed form covers.
"""

from __future__ import annotations

import numpy as np

from repro.sim.costs import TABLE, expression, price
from repro.sim.network import MachineSpec

#: Spec fields whose value changes the *communication pattern*, not just
#: its cost. A trace records the pattern under the recorded spec; replay
#: under a target that disagrees on these is an approximation and gets a
#: warning (docs/ir.md spells out the validity model).
STRUCTURE_FIELDS = (
    "mpi_eager_threshold",
    "mpi_rma_over_sendrecv",
    "gasnet_srq_threshold",
    "gasnet_am_credits",
    "gasnet_coll_signal",
)


def structure_warnings(recorded: MachineSpec, target: MachineSpec, nranks: int) -> list[str]:
    out = []
    for f in STRUCTURE_FIELDS:
        rv, tv = getattr(recorded, f), getattr(target, f)
        if rv != tv:
            out.append(
                f"structure parameter {f} differs (recorded {rv!r}, target "
                f"{tv!r}): the recorded communication pattern is kept"
            )
    if recorded.srq_active(nranks) != target.srq_active(nranks):
        out.append(
            "SRQ active/inactive differs between recorded and target spec: "
            "recorded delivery-path structure is kept"
        )
    return out


# -- obs (per-op totals) re-pricing ---------------------------------------
#
# The obs side table records (rank, kind, nbytes, seconds) per completed
# op. At the recorded spec the recorded seconds are authoritative. Under a
# different spec, kinds the cost table records (repro.sim.costs.TABLE) are
# re-priced: the expression the *recorded* spec's structure flags selected
# — the pattern is frozen — evaluated under the target. Every other kind is
# span-measured (flush waits, fetch-op/CAS round trips, CAF-level spans,
# collectives): it keeps its recorded values and is listed in the result's
# warnings.


def obs_formula(
    kind: str,
    nbytes: np.ndarray,
    target: MachineSpec,
    recorded: MachineSpec,
    nranks: int,
) -> np.ndarray | None:
    """Re-priced per-call seconds for ``kind``, or None (span-measured)."""
    row = TABLE.get(kind)
    if row is None or not row.recorded:
        return None
    sizes, inverse = np.unique(nbytes, return_inverse=True)
    per_size = [
        price(expression(kind, recorded, int(nb)), target, nranks) for nb in sizes
    ]
    return np.array(per_size, dtype=np.float64)[inverse]


# -- static (pre-run) pricing ---------------------------------------------
#
# The lint stream compiler predicts op streams before any run, so there is
# no recorded baseline to branch on: the spec being priced *is* the
# structure. Kinds the cost table records reuse obs_formula with
# recorded == target; CAF-level and collective kinds (span-measured at
# runtime) get simple first-order models — a log2(P) tree for collectives,
# initiation + wire cost for one-sided traffic. These are coarse by
# design: the estimator's validated quantities are call counts and bytes,
# with seconds reported as an order-of-magnitude preview.


def static_op_seconds(
    kind: str, nbytes: np.ndarray, spec: MachineSpec, nranks: int
) -> np.ndarray:
    """Predicted per-call seconds for a *statically compiled* op stream."""
    nb = np.asarray(nbytes, dtype=np.float64)
    known = obs_formula(kind, np.asarray(nbytes), spec, spec, nranks)
    if known is not None:
        return known

    def helper(row: str, a: int = 0) -> float:
        return price(expression(row, spec, a=a), spec, nranks)

    wire = spec.latency + nb / spec.bandwidth
    if kind.startswith("caf.coll.") or kind.startswith("mpi.coll."):
        rounds = max(np.log2(max(nranks, 2)), 1.0)
        return spec.mpi_coll_overhead + rounds * wire
    if kind in ("caf.coarray_write", "caf.async_write", "caf.async_copy"):
        return spec.mpi_rma_overhead + nb / spec.bandwidth
    if kind in ("caf.coarray_read", "caf.async_read"):
        return spec.mpi_rma_overhead + 2 * spec.latency + nb / spec.bandwidth
    if kind in ("caf.event_notify",):
        return np.full(nb.shape, spec.mpi_rma_overhead + spec.latency)
    if kind in ("caf.event_wait", "caf.event_trywait"):
        return np.full(nb.shape, spec.mpi_match_overhead)
    if kind == "mpi.win.flush_all":
        # MPICH-style FLUSH_ALL walks every rank in the window's group —
        # the paper's Fig. 4 O(P) scaling cliff.
        return np.full(
            nb.shape, helper("mpi.flush_all.skip") + helper("mpi.flush_all.walk", nranks)
        )
    if kind.startswith("mpi.win."):
        return np.full(nb.shape, helper("mpi.flush_overhead"))
    if kind in ("caf.finish", "caf.cofence", "caf.serve", "caf.spawn"):
        return np.full(nb.shape, spec.mpi_coll_overhead)
    return wire if wire.shape else np.full((), float(wire))
