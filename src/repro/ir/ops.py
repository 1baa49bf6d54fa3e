"""The dynamic IR op model: the op and chain kinds a recorded trace is made of.

Op kinds mirror the instrumented call surface — local compute sleeps,
scheduled callbacks, fabric transfers, event fire/wait, counter add/wait,
channel put/get — stored columnar (:mod:`repro.ir.trace`). Every op
carries a stable id (its global record sequence number ``gseq`` — live
execution order), the chain (execution context) it belongs to, and its
dependence tokens (event / counter / channel ids, transfer peers).

(The static method-name vocabulary the linter types call sites with is
not here: only ``repro.lint`` reads it, so it is ``repro.lint.protocol``.)
"""

from __future__ import annotations

from repro.sim.irhook import CK_LIT, COST_FIELDS  # noqa: F401  (re-exported)

# -- dynamic IR op kinds ---------------------------------------------------

OP_SLEEP = 0  # advance the chain's clock by a (re-priceable) cost
OP_CALL = 1  # schedule a child chain after a (re-priceable) delay
OP_XFER = 2  # fabric transfer; delivery starts the referenced child chain
OP_FIRE = 3  # SimEvent.fire
OP_WAITEV = 4  # SimEvent.wait completion
OP_ADD = 5  # Counter.add
OP_WAITGE = 6  # Counter.wait_geq completion (non-consuming)
OP_PUT = 8  # Channel.put (carries the per-channel put sequence number)
OP_CHGET = 9  # Channel receive completion (the put it takes: FIFO)

OP_NAMES = {
    OP_SLEEP: "sleep",
    OP_CALL: "call",
    OP_XFER: "xfer",
    OP_FIRE: "fire",
    OP_WAITEV: "wait_event",
    OP_ADD: "add",
    OP_WAITGE: "wait_geq",
    OP_PUT: "chan_put",
    OP_CHGET: "chan_get",
}

# Chain kinds (execution contexts).
CHAIN_PROC = 0  # a simulated process fiber (rank >= 0 for rank processes)
CHAIN_CB = 1  # a scheduled callback (started by a CALL or XFER op)

# Retired kinds are not reused; a trace that carries one is refused by
# ``Trace.check_structure``, which names it.
RETIRED_OP_KINDS = {7: "TAKE, a consuming counter wait nothing issued"}
RETIRED_CHAIN_KINDS = {
    2: "EXTERNAL, a callback scheduled from outside any context: only crash "
    "schedules did that, and those are never recorded",
}
