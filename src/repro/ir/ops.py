"""The dynamic IR op model: the op and chain kinds a recorded trace is made of.

Op kinds mirror the instrumented call surface — local compute sleeps,
scheduled callbacks, fabric transfers, and counter add/wait — stored
columnar (:mod:`repro.ir.trace`). A counter reaching a threshold is the
one dependence the IR knows: a fired ``SimEvent`` records as ``add 1`` and
a finished wait on it as ``wait_geq 1``; a ``Channel`` is a counter of its
arrivals, so its n-th get is ``wait_geq n``. Every op carries a stable id
(its global record sequence number ``gseq`` — live execution order), the
chain (execution context) it belongs to, and its dependence tokens
(waitable ids, transfer peers).

(The static method-name vocabulary the linter types call sites with is
not here: only ``repro.lint`` reads it, so it is ``repro.lint.protocol``.)
"""

from __future__ import annotations

from repro.sim.irhook import CK_LIT, COST_FIELDS  # noqa: F401  (re-exported)

# -- dynamic IR op kinds ---------------------------------------------------

OP_SLEEP = 0  # advance the chain's clock by a (re-priceable) cost
OP_CALL = 1  # schedule a child chain after a (re-priceable) delay
OP_XFER = 2  # fabric transfer; delivery starts the referenced child chain
OP_ADD = 5  # Counter.add, SimEvent.fire (add 1), Channel.put (add 1)
OP_WAITGE = 6  # wait completion (non-consuming): count >= threshold

OP_NAMES = {
    OP_SLEEP: "sleep",
    OP_CALL: "call",
    OP_XFER: "xfer",
    OP_ADD: "add",
    OP_WAITGE: "wait_geq",
}

# Chain kinds (execution contexts).
CHAIN_PROC = 0  # a simulated process fiber (rank >= 0 for rank processes)
CHAIN_CB = 1  # a scheduled callback (started by a CALL or XFER op)

# Retired kinds are not reused; a trace that carries one is refused by
# ``Trace.check_structure``, which names it.
RETIRED_OP_KINDS = {
    3: "FIRE, now ADD 1 on the event",
    4: "WAITEV, now WAITGE 1 on the event",
    7: "TAKE, a consuming counter wait nothing issued",
    8: "PUT, now ADD 1 on the channel's arrival counter",
    9: "CHGET, now WAITGE n on the channel's arrival counter for its n-th get",
}
RETIRED_CHAIN_KINDS = {
    2: "EXTERNAL, a callback scheduled from outside any context: only crash "
    "schedules did that, and those are never recorded",
}
