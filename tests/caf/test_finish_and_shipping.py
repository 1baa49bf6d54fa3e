"""finish blocks (fast + termination detection) and function shipping."""

import threading

import numpy as np

from repro.caf import run_caf


def test_fast_finish_completes_async_writes(backend):
    def program(img):
        co = img.allocate_coarray(1, np.float64)
        with img.finish(fast=True):
            co.write_async((img.rank + 1) % img.nranks, np.array([float(img.rank)]))
        return co.local[0]

    run = run_caf(program, 4, backend=backend)
    assert run.results == [3.0, 0.0, 1.0, 2.0]


def _bump(img, amount):
    shared = img.cluster.shared("ship-test-results", dict)
    shared[img.rank] = shared.get(img.rank, 0) + amount


def test_ship_function_runs_on_target(backend):
    def program(img):
        with img.finish():
            if img.rank == 0:
                img.spawn(1, _bump, 10)
                img.spawn(1, _bump, 5)
        shared = img.cluster.shared("ship-test-results", dict)
        return shared.get(img.rank, 0)

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == 15


def _chain(img, depth):
    if depth > 0:
        img.spawn((img.rank + 1) % img.nranks, _chain, depth - 1)
    _bump(img, 1)


def test_finish_detects_chained_shipping(backend):
    """Termination detection must cover functions spawned by functions."""

    def program(img):
        with img.finish():
            if img.rank == 0:
                img.spawn(1, _chain, 3)
        shared = img.cluster.shared("ship-test-results", dict)
        return shared.get(img.rank, 0)

    run = run_caf(program, 3, backend=backend)
    # Chain: depth 3 on rank 1 -> 2 on rank 2 -> 1 on rank 0 -> 0 on rank 1.
    assert sum(run.results) == 4
    assert run.results[1] == 2


def _write_back(img, origin, value):
    co = img.cluster.shared("ship-coarrays", dict)[img.rank]
    co.write(origin, np.array([value]))


def test_shipped_function_can_communicate(backend):
    """§2.1: shipped functions may perform the full range of CAF ops."""

    def program(img):
        co = img.allocate_coarray(1, np.float64)
        img.cluster.shared("ship-coarrays", dict)[img.rank] = co
        img.sync_all()
        with img.finish():
            if img.rank == 0:
                img.spawn(1, _write_back, 0, 7.5)
        img.sync_all()
        return co.local[0]

    run = run_caf(program, 2, backend=backend)
    assert run.results[0] == 7.5


def _blocking_body(img, origin):
    """Shipped: blocks three ways — a nested coarray write, a compute sleep
    and a ``sync_images`` handshake with the image that shipped it."""
    img.cluster.shared("ship-threads", dict)[img.rank] = threading.get_ident()
    co = img.cluster.shared("ship-coarrays", dict)[img.rank]
    co.write(origin, np.array([10.0 + img.rank]))
    img.compute(1e-6)
    img.sync_images([origin])


def test_shipped_function_that_blocks_runs_on_its_images_fiber(backend):
    """A handler may not block; a shipped function may do anything. The
    handler enqueues and the image executes: the body runs on the target
    image's own fiber, in the middle of whatever blocking call its progress
    engine was driving (here ``serve`` — one script on either backend)."""

    def program(img):
        co = img.allocate_coarray(1, np.float64)
        img.cluster.shared("ship-coarrays", dict)[img.rank] = co
        own = threading.get_ident()
        img.sync_all()
        if img.rank == 0:
            img.spawn(1, _blocking_body, 0)
            img.sync_images([1])
        elif img.rank == 1:
            img.serve()
        img.sync_all()
        return own, co.local[0]

    run = run_caf(program, 3, backend=backend)
    assert run.results[0][1] == 11.0
    assert run.cluster.shared("ship-threads", dict) == {1: run.results[1][0]}


def test_nested_finish_blocks(backend):
    def program(img):
        co = img.allocate_coarray(2, np.float64)
        with img.finish(fast=True):
            co.write_async((img.rank + 1) % img.nranks, np.array([1.0]), offset=0)
            with img.finish(fast=True):
                co.write_async((img.rank + 1) % img.nranks, np.array([2.0]), offset=1)
            # Inner block completed: slot 1 visible everywhere.
            assert co.local[1] == 2.0
        return co.local.tolist()

    run = run_caf(program, 3, backend=backend)
    for r in run.results:
        assert r == [1.0, 2.0]


def test_finish_auto_picks_fast_when_no_shipping(backend):
    def program(img):
        co = img.allocate_coarray(1, np.float64)
        with img.finish():  # auto mode
            co.write_async((img.rank + 1) % img.nranks, np.array([4.0]))
        return co.local[0]

    run = run_caf(program, 4, backend=backend)
    assert all(r == 4.0 for r in run.results)


def test_spawn_to_self(backend):
    def program(img):
        with img.finish():
            img.spawn(img.rank, _bump, 3)
        shared = img.cluster.shared("ship-test-results", dict)
        return shared.get(img.rank, 0)

    run = run_caf(program, 2, backend=backend)
    assert run.results == [3, 3]
