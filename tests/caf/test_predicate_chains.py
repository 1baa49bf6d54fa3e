"""Asynchronous operations chained through events (§2.1): a ``write_async``
gated on a ``predicate`` event starts once that event is posted, whatever
posts it.

A gate is the completion event of another asynchronous op (posted by a
completion callback, outside any image's fiber) or a ``notify`` from
another image (posted by an AM handler, or by an ``MPI_ACCUMULATE`` under
CAF-MPI's atomics events, which never runs code at the target). Either way
the gated start is an entry of the image's one progress queue, ready once
the slot's count is positive, and runs on the image's own fiber. Each case
checks that the gated write lands and that its own ``src_event`` posts.
"""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.mpi.constants import SUM

#: How each local gate's event is posted.
GATES = {
    "write_async.src_event": lambda img, g, data, buf, ev: g.write_async(
        (img.rank + 1) % img.nranks, data, src_event=(ev, 0)
    ),
    "copy_async.src_event": lambda img, g, data, buf, ev: img.copy_async(
        g, (img.rank + 1) % img.nranks, g, img.rank, src_event=(ev, 0)
    ),
    "read_async.dest_event": lambda img, g, data, buf, ev: g.read_async(
        (img.rank + 1) % img.nranks, buf, dest_event=(ev, 0)
    ),
    "allreduce_async.data_event": lambda img, g, data, buf, ev: img.team_allreduce_async(
        data, buf, SUM, data_event=(ev, 0)
    ),
    "allreduce_async.op_event": lambda img, g, data, buf, ev: img.team_allreduce_async(
        data, buf, SUM, op_event=(ev, 0)
    ),
}


def _local_chain(img, gate, n):
    g = img.allocate_coarray(n)  # what the gate moves
    dest = img.allocate_coarray(n)  # where the gated write lands
    ev = img.allocate_events(2)  # slot 0: the gate; slot 1: the gated write's src_event
    g.local[:] = img.rank + 1.0
    img.sync_all()
    right = (img.rank + 1) % img.nranks
    GATES[gate](img, g, np.full(n, img.rank + 1.0), np.zeros(n), ev)
    dest.write_async(right, np.full(n, 10.0 * (img.rank + 1)),
                     predicate=(ev, 0), src_event=(ev, 1))
    ev.wait(1)
    img.sync_all()
    return dest.local.copy()


@pytest.mark.parametrize("n", [4, 8192])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_a_write_gated_on_a_completion_event_starts(backend, gate, n):
    run = run_caf(_local_chain, 2, backend=backend, gate=gate, n=n, deadline=1.0)
    for rank, landed in enumerate(run.results):
        left = (rank - 1) % 2
        np.testing.assert_array_equal(landed, np.full(n, 10.0 * (left + 1)))


def _remote_chain(img):
    dest = img.allocate_coarray(4)
    ev = img.allocate_events(2)
    img.sync_all()
    if img.rank == 0:
        ev.notify(1, 0)  # releases image 1's gated write
    else:
        dest.write_async(0, np.full(4, 7.0), predicate=(ev, 0), src_event=(ev, 1))
        ev.wait(1)
    img.sync_all()
    return dest.local.copy()


@pytest.mark.parametrize(
    "backend, options",
    [("mpi", None), ("mpi", {"event_impl": "atomics"}), ("gasnet", None)],
    ids=["mpi-sendrecv", "mpi-atomics", "gasnet"],
)
def test_a_write_gated_on_a_remote_notify_starts(backend, options):
    run = run_caf(_remote_chain, 2, backend=backend, backend_options=options, deadline=1.0)
    np.testing.assert_array_equal(run.results[0], np.full(4, 7.0))
