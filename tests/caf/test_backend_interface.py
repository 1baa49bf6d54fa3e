"""The seam between the CAF runtime and its transports.

A backend is a transport: ``RuntimeBackend`` owns everything that merely
rides on Active Messages (function shipping, event posting and allocation,
termination counters, the progress engine and its queue) and every AM
handler enters at one place, ``RuntimeBackend._run_thunk``. These tests pin
that shape.
"""

import threading

import numpy as np
import pytest

from repro.caf import run_caf
from repro.caf.backend import EventStorage, RuntimeBackend
from repro.caf.backends.gasnet_backend import GasnetBackend
from repro.caf.backends.mpi_backend import MpiBackend
from repro.caf.image import Image
from repro.sim.cluster import Cluster
from repro.sim.network import MachineSpec
from repro.util.errors import CafError

TRANSPORT = {
    # Active Messages, as steps (the progress engine around them is written once)
    "_send_thunk_steps", "_poll_steps",
    # team handles (which are the blocking-collective API)
    "make_world_team_handle", "split_team_handle",
    # coarray storage
    "allocate_coarray", "local_view", "_write_steps", "_read_steps",
    "coarray_write_async", "coarray_read_async",
    # completion
    "_notify_steps", "_cofence_steps", "_quiet_steps", "collective_async",
}
#: The blocking entry points: each parks the image on the transport's steps,
#: and ``RuntimeBackend`` is the only class that does.
ENTRY_POINTS = {
    "send_thunk", "poll", "progress_wait", "coarray_write", "coarray_read",
    "event_notify", "event_wait", "cofence", "quiet",
}
WRITTEN_ONCE = {
    "ship_function", "allocate_events", "shipped_minus_completed",
    "completed_count", "defer", "run_continuations", "agree",
    "kick", "_progress_steps", "_progress_wait_steps",
    "barrier", "broadcast", "bcast", "reduce", "allreduce", "alltoall",
    "allgather",
}


def test_interface_is_the_transport():
    assert RuntimeBackend.__abstractmethods__ == TRANSPORT
    assert len(TRANSPORT) == 14


@pytest.mark.parametrize("cls", [MpiBackend, GasnetBackend])
def test_backends_define_no_runtime_above_the_transport(cls):
    assert not WRITTEN_ONCE & set(vars(cls))
    assert not ENTRY_POINTS & set(vars(cls))
    assert ENTRY_POINTS <= set(vars(RuntimeBackend))
    assert not cls.__abstractmethods__


def _touch(img):
    """Shipped function: marks that it ran on ``img``."""
    img.cluster.shared("test-touched", set).add(img.rank)


def _every_thunk_kind(img, *, am_write, section=False):
    ev = img.allocate_events(1)
    co = img.allocate_coarray(4)
    img.sync_all()
    right = (img.rank + 1) % img.nranks
    ev.notify(right)  # event post
    ev.wait()
    co.write_async(right, np.full(4, img.rank + 1.0), dest_event=(ev, 0))
    ev.wait()  # destination-event write
    with img.finish():
        img.spawn(right, _touch)  # shipped function
    if am_write:
        co.write(right, np.zeros(4))  # AM write + its ack
    if section:
        co.write_section(right, slice(0, 4, 2), np.ones(2))  # two runs: AM write + ack
    img.sync_all()
    return co.local.tolist()


@pytest.mark.parametrize(
    "backend, options, section, per_image",
    [
        ("mpi", None, False, 3), ("gasnet", None, False, 3),
        ("gasnet", {"am_writes": True}, False, 5), ("gasnet", {"am_writes": True}, True, 7),
    ],
    ids=["mpi-None-3", "gasnet-None-3", "gasnet-options2-5", "gasnet-options2-section-7"],
)
def test_every_am_enters_at_run_thunk_once(monkeypatch, backend, options, section, per_image):
    boarded, ran = [], []
    board, run_thunk = RuntimeBackend._board, RuntimeBackend._run_thunk

    def counting_board(self, thunk):
        seq = board(self, thunk)
        boarded.append((self.ctx.rank, seq))
        return seq

    def counting_run_thunk(self, src_world, seq):
        ran.append((src_world, seq))
        return run_thunk(self, src_world, seq)  # None, or the thunk's remaining steps

    monkeypatch.setattr(RuntimeBackend, "_board", counting_board)
    monkeypatch.setattr(RuntimeBackend, "_run_thunk", counting_run_thunk)
    nranks = 3
    run = run_caf(_every_thunk_kind, nranks, backend=backend,
                  backend_options=options, am_write=bool(options), section=section)
    assert len(boarded) == per_image * nranks
    assert sorted(ran) == sorted(boarded)  # each AM ran, and ran once
    assert run.cluster.shared("caf-am-board", dict) == {}
    assert run.cluster.shared("test-touched", set) == set(range(nranks))
    if section:  # the handler stored each run, and only those
        assert run.results == [[1.0, 0.0, 1.0, 0.0]] * nranks


def test_thunk_steps_send_a_message_and_hand_user_code_to_the_image(backend):
    """A thunk with more to do than handler code returns steps, and either
    transport's progress engine takes them inside the blocking call it is
    driving: a message of the thunk's own is more steps of that script,
    user code is yielded and runs on the image's own OS thread."""

    def program(img):
        b, own = img.backend, threading.get_ident()
        ran_on = img.cluster.shared("test-thunk-threads", dict)
        replies = []
        img.sync_all()
        if img.rank == 0:
            def on_target(here):
                yield lambda: ran_on.setdefault(1, threading.get_ident())
                yield from here._send_thunk_steps(
                    0, here.AM_BYTES, lambda here: replies.append(here.ctx.rank)
                )

            b.send_thunk(1, b.AM_BYTES, on_target)
            b.progress_wait(lambda: replies, "reply")
        elif img.rank == 1:
            b.progress_wait(lambda: ran_on, "thunk")
        img.sync_all()
        return own, replies

    run = run_caf(program, 3, backend=backend)
    assert run.results[0][1] == [0]
    assert run.cluster.shared("test-thunk-threads", dict) == {1: run.results[1][0]}


def test_post_to_unallocated_event_is_a_caf_error(backend):
    def program(img):
        ev = img.allocate_events(1)
        if img.rank == 0:
            # An event id image 1 never allocated (allocation is collective,
            # so only a runtime bug or a stale handle can name one).
            stale = EventStorage(img.backend, 9999, img.team_world, 1)
            img.backend.event_notify(stale, 1, 0)
        ev.wait()  # image 1's progress engine runs the post

    with pytest.raises(CafError, match="event 9999 posted before allocation on target"):
        run_caf(program, 2, backend=backend, deadline=1.0)


@pytest.mark.parametrize("cls", [MpiBackend, GasnetBackend])
def test_spawn_to_image_without_an_image_object_is_a_caf_error(cls):
    """``run_caf`` registers every image; a hand-built cluster may not."""

    def wrapper(ctx):
        img = Image(ctx, cls(ctx, {"segment_bytes": 1 << 20}))
        if ctx.rank == 0:
            img.spawn(1, _touch)
        else:
            img.serve()

    cluster = Cluster(2, MachineSpec(name="test"))
    with pytest.raises(CafError, match="target image not initialized for function shipping"):
        cluster.run(wrapper, deadline=1.0)


def test_op_that_raises_is_profiled_but_not_recorded(backend):
    """One span per CAF op: the region's time always lands in the category
    breakdown; the metrics op only if the op completed."""

    def program(img):
        co = img.allocate_coarray(4)
        img.sync_all()
        right = (img.rank + 1) % img.nranks
        real_write = img.backend.coarray_write

        def failing_write(*args):
            img.ctx.proc.sleep(1e-6)
            raise RuntimeError("boom")

        img.backend.coarray_write = failing_write
        with pytest.raises(RuntimeError, match="boom"):
            co.write(right, np.ones(4))
        img.backend.coarray_write = real_write
        co.write(right, np.ones(4))
        img.sync_all()

    run = run_caf(program, 2, backend=backend, metrics=True)
    for rank in range(2):
        assert run.profiler.counts[rank]["coarray_write"] == 2
        stats = run.metrics.op(rank, "caf.coarray_write")
        assert (stats.calls, stats.nbytes) == (1, 32)
        # The failed attempt's 1 us is category time but not op time.
        assert run.profiler.rank_total(rank, "coarray_write") == pytest.approx(
            stats.time + 1e-6, rel=1e-9
        )
