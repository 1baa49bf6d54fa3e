"""What replay and the static estimator add on top of the cost model.

The cost model itself — the per-kind table and both evaluators — is
:mod:`repro.sim.costs`. This module holds the replay-side policy around
it: which spec fields change the communication *pattern* (and so only
warn) and how recorded per-op totals are re-priced.
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
    exact = (
        "so its costs are approximate; for exact costs, record the program live "
        f"under the target spec ({target.name!r})"
    )
    out = []
    for f in STRUCTURE_FIELDS:
        rv, tv = getattr(recorded, f), getattr(target, f)
        if rv != tv:
            out.append(
                f"structure parameter {f} differs (recorded {rv!r}, target "
                f"{tv!r}): replay keeps the recorded communication pattern, {exact}"
            )
    if recorded.srq_active(nranks) != target.srq_active(nranks):
        out.append(
            "SRQ active/inactive differs between recorded and target spec: "
            f"replay keeps the recorded delivery path, {exact}"
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
    sizes, inverse = np.unique(nbytes, return_inverse=True)
    per_size = obs_prices(kind, sizes, target, recorded, nranks)
    return None if per_size is None else per_size[inverse]


def obs_prices(
    kind: str,
    sizes: np.ndarray,
    target: MachineSpec,
    recorded: MachineSpec,
    nranks: int,
) -> np.ndarray | None:
    """Re-priced seconds of one ``kind`` call at each of the message
    ``sizes``, or None (span-measured)."""
    row = TABLE.get(kind)
    if row is None or not row.recorded:
        return None
    per_size = [
        price(expression(kind, recorded, int(nb)), target, nranks) for nb in sizes
    ]
    return np.array(per_size, dtype=np.float64)
