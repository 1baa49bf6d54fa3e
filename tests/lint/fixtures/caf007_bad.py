"""CAF007 true positive: a registered AM handler that can block."""

from repro.mpi.request import wait_all

AM_PING = 7


def blocking_handler(token, ev):
    ev.wait()  # expected: CAF007
    token.reply_short(AM_PING + 1, 0)


def completing_handler(token, reqs):
    wait_all(reqs)  # expected: CAF007


def setup(gas):
    gas.register_handler(AM_PING, blocking_handler)
    gas.register_handler(AM_PING + 2, completing_handler)
