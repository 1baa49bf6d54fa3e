"""Asynchronous operations: copy_async with events, cofence (§2.1, §3.3)."""

import numpy as np

from repro.caf import run_caf


def test_write_async_then_cofence_then_finish(backend):
    def program(img):
        co = img.allocate_coarray(16, np.float64)
        with img.finish(fast=True):
            target = (img.rank + 1) % img.nranks
            co.write_async(target, np.full(16, float(img.rank)))
            img.cofence()  # local completion: source buffer reusable
        left = (img.rank - 1) % img.nranks
        return co.local[0] == float(left)

    run = run_caf(program, 4, backend=backend)
    assert all(run.results)


def test_write_async_src_event(backend):
    def program(img):
        co = img.allocate_coarray(4, np.float64)
        ev = img.allocate_events(1)
        done = img.allocate_events(1)
        if img.rank == 0:
            co.write_async(1, np.full(4, 9.0), src_event=(ev, 0))
            ev.wait()  # source buffer reusable
            done.notify(target=1)  # not a data fence by itself...
        else:
            done.wait()
            return True

    run = run_caf(program, 2, backend=backend)
    assert run.results[1]


def test_write_async_dest_event_posts_at_target(backend):
    """Case 4 of §3.3: destination event posted on the target after data lands."""

    def program(img):
        co = img.allocate_coarray(8, np.float64)
        ev = img.allocate_events(1)
        if img.rank == 0:
            co.write_async(1, np.arange(8, dtype=np.float64), dest_event=(ev, 0))
        else:
            ev.wait()  # posted remotely, at us
            return co.local.tolist()

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == list(range(8))


def test_read_async_with_cofence(backend):
    def program(img):
        co = img.allocate_coarray(4, np.float64)
        co.local[:] = img.rank * 10.0
        img.sync_all()
        out = np.zeros(4)
        co.read_async((img.rank + 1) % img.nranks, out)
        img.cofence()
        return out[0]

    run = run_caf(program, 3, backend=backend)
    assert run.results == [10.0, 20.0, 0.0]


def test_read_async_dest_event(backend):
    def program(img):
        co = img.allocate_coarray(4, np.float64)
        co.local[:] = float(img.rank + 1)
        ev = img.allocate_events(1)
        img.sync_all()
        out = np.zeros(4)
        co.read_async((img.rank + 1) % img.nranks, out, dest_event=(ev, 0))
        ev.wait()
        return out[0]

    run = run_caf(program, 2, backend=backend)
    assert run.results == [2.0, 1.0]


def test_predicate_event_delays_copy(backend):
    def program(img):
        co = img.allocate_coarray(4, np.float64)
        pred = img.allocate_events(1)
        done = img.allocate_events(1)
        if img.rank == 0:
            # Queue a predicated write; it must not start yet.
            co.write_async(1, np.full(4, 5.0), predicate=(pred, 0), dest_event=(done, 0))
            img.compute(1.0)
            pred._post_local(0)  # fire the predicate locally
        else:
            done.wait()
            return co.local[0], img.now

    run = run_caf(program, 2, backend=backend)
    value, when = run.results[1]
    assert value == 5.0
    assert when >= 1.0  # data could not arrive before the predicate fired


def test_many_async_writes_one_finish(backend):
    def program(img):
        co = img.allocate_coarray(img.nranks, np.float64)
        with img.finish(fast=True):
            for target in range(img.nranks):
                co.write_async(target, np.array([float(img.rank)]), offset=img.rank)
        return co.local.tolist()

    run = run_caf(program, 4, backend=backend)
    for r in run.results:
        assert r == [0.0, 1.0, 2.0, 3.0]


def test_cofence_allows_buffer_reuse_semantics(backend):
    """After cofence the async op is locally complete on both backends."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        if img.rank == 0:
            co.write_async(1, np.full(4, 1.0))
            img.cofence()
        img.sync_all()
        return co.local[0]

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == 1.0


def test_source_reused_after_src_event_still_delivers_its_value(backend):
    """Local completion means the buffer may be reused (Schuchart & Gracia):
    a case-4 ``write_async`` whose source is overwritten once ``src_event``
    posts still delivers the value it was called with."""

    def program(img):
        co = img.allocate_coarray(4, np.float64)
        ev = img.allocate_events(2)
        if img.rank == 0:
            buf = np.full(4, 7.0)
            co.write_async(1, buf, src_event=(ev, 0), dest_event=(ev, 1))
            ev.wait(0)  # the source buffer is reusable...
            buf[:] = -1.0  # ...so reuse it
        else:
            ev.wait(1)
        img.sync_all()
        return co.local.tolist()

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == [7.0] * 4


def test_sync_all_leaves_no_completed_op_registered(backend):
    """An async op is tracked once, in the transport's §3.5 arrays, and a
    ``sync_all`` completes and drops it: after many, neither the image nor
    its transport holds one."""

    def program(img):
        co = img.allocate_coarray(64, np.float64)
        out = np.empty(1)
        peer = (img.rank + 1) % img.nranks
        for k in range(64):
            co.write_async(peer, np.array([float(k)]), offset=k)
            co.read_async(peer, out, offset=k)
        img.sync_all()
        return {
            f"{type(obj).__name__}.{name}": len(value)
            for obj in (img, img.backend)
            for name, value in vars(obj).items()
            if isinstance(value, list) and name not in ("_windows", "_continuations")
        }

    run = run_caf(program, 4, backend=backend)
    for held in run.results:
        assert held and not any(held.values()), held
