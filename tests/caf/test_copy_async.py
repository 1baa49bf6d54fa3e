"""copy_async: all four source/destination placements (§2.1)."""

import threading

import numpy as np
import pytest

from repro.caf import run_caf
from repro.caf.image import Image
from repro.util.errors import CafError


def test_local_to_remote(backend):
    def program(img):
        a = img.allocate_coarray(8, np.float64)
        b = img.allocate_coarray(8, np.float64)
        a.local[:] = img.rank + 1.0
        ev = img.allocate_events(1)
        img.sync_all()
        result = None
        if img.rank == 0:
            img.copy_async(b, 1, a, 0, dest_event=(ev, 0))
        if img.rank == 1:
            ev.wait()
            result = b.local.tolist()
        img.sync_all()
        return result

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == [1.0] * 8


def test_remote_to_local(backend):
    def program(img):
        a = img.allocate_coarray(4, np.float64)
        b = img.allocate_coarray(4, np.float64)
        a.local[:] = img.rank * 10.0
        ev = img.allocate_events(1)
        img.sync_all()
        result = None
        if img.rank == 0:
            img.copy_async(b, 0, a, 1, dest_event=(ev, 0))
            ev.wait()
            result = b.local.tolist()
        img.sync_all()
        return result

    run = run_caf(program, 2, backend=backend)
    assert run.results[0] == [10.0] * 4


def test_remote_to_remote_third_party(backend):
    """Image 0 orchestrates a copy from image 1's coarray to image 2's."""

    def program(img):
        a = img.allocate_coarray(6, np.float64)
        b = img.allocate_coarray(6, np.float64)
        a.local[:] = img.rank * 100.0 + np.arange(6)
        done = img.allocate_events(1)
        img.sync_all()
        result = None
        if img.rank == 0:
            img.copy_async(b, 2, a, 1, dest_event=(done, 0))
        if img.rank == 2:
            done.wait()
            result = b.local.tolist()
        # The orchestrator stays inside CAF (sync_all drives its progress
        # engine) so the fetched data's forwarding leg can run.
        img.sync_all()
        return result

    run = run_caf(program, 3, backend=backend)
    assert run.results[2] == [100.0 + i for i in range(6)]


@pytest.fixture
def ran_on(monkeypatch):
    """image rank -> the OS thread its ``_copy_deliver`` (the leg of a
    ``copy_async`` that communicates) last ran on."""
    threads = {}
    deliver = Image._copy_deliver

    def recording_deliver(self, *args):
        threads[self.rank] = threading.get_ident()
        return deliver(self, *args)

    monkeypatch.setattr(Image, "_copy_deliver", recording_deliver)
    return threads


def test_forwarding_leg_runs_on_the_orchestrators_fiber(backend, ran_on):
    """The forwarding leg of a remote-to-remote copy is a runtime
    continuation: it communicates, so the progress engine hands it to the
    orchestrating image's own fiber, whichever fiber is driving its script."""
    def program(img):
        a = img.allocate_coarray(6, np.float64)
        b = img.allocate_coarray(6, np.float64)
        a.local[:] = img.rank * 100.0 + np.arange(6)
        done = img.allocate_events(1)
        img.sync_all()
        if img.rank == 0:
            img.copy_async(b, 2, a, 1, dest_event=(done, 0))
        if img.rank == 2:
            done.wait()
        img.sync_all()
        return threading.get_ident(), b.local.tolist()

    run = run_caf(program, 3, backend=backend)
    assert run.results[2][1] == [100.0 + i for i in range(6)]
    assert ran_on == {0: run.results[0][0]}


def test_remote_notify_releases_a_predicate_gated_copy(backend, ran_on):
    """A notification AM whose slot has a predicate subscriber starts that
    operation, and starting it communicates: the post is user-level work
    for the image's own fiber, not handler code."""
    def program(img):
        a = img.allocate_coarray(2, np.float64)
        b = img.allocate_coarray(2, np.float64)
        a.local[:] = 9.0
        pred = img.allocate_events(1)
        done = img.allocate_events(2)
        img.sync_all()
        if img.rank == 0:
            img.copy_async(b, 1, a, 0, predicate=(pred, 0), dest_event=(done, 0))
            done.wait(slot=1)  # inside CAF: the progress engine runs the post
        if img.rank == 2:
            img.compute(1.0)
            pred.notify(0)
        if img.rank == 1:
            done.wait()
            done.notify(0, slot=1)
        img.sync_all()
        return threading.get_ident(), img.now, b.local.tolist()

    run = run_caf(program, 3, backend=backend)
    assert run.results[1][1] >= 1.0 and run.results[1][2] == [9.0, 9.0]
    assert ran_on == {0: run.results[0][0]}


def test_local_to_local(backend):
    def program(img):
        a = img.allocate_coarray(4, np.float64)
        b = img.allocate_coarray(4, np.float64)
        a.local[:] = 3.5
        ev = img.allocate_events(1)
        img.copy_async(b, img.rank, a, img.rank, dest_event=(ev, 0))
        ev.wait()
        img.sync_all()
        return b.local.tolist()

    run = run_caf(program, 2, backend=backend)
    assert all(r == [3.5] * 4 for r in run.results)


def test_offsets_and_counts(backend):
    def program(img):
        a = img.allocate_coarray(10, np.float64)
        b = img.allocate_coarray(10, np.float64)
        a.local[:] = np.arange(10)
        ev = img.allocate_events(1)
        img.sync_all()
        result = None
        if img.rank == 0:
            img.copy_async(
                b, 1, a, 0, count=3, src_offset=2, dest_offset=5, dest_event=(ev, 0)
            )
        if img.rank == 1:
            ev.wait()
            result = b.local.tolist()
        img.sync_all()
        return result

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == [0, 0, 0, 0, 0, 2.0, 3.0, 4.0, 0, 0]


def test_src_event_posts_for_buffer_reuse(backend):
    def program(img):
        a = img.allocate_coarray(4, np.float64)
        b = img.allocate_coarray(4, np.float64)
        a.local[:] = 1.0
        src_ev = img.allocate_events(1)
        done = img.allocate_events(1)
        img.sync_all()
        result = None
        if img.rank == 0:
            img.copy_async(b, 1, a, 0, src_event=(src_ev, 0), dest_event=(done, 0))
            src_ev.wait()  # source reusable
            a.local[:] = -1.0  # must not affect the copy
        if img.rank == 1:
            done.wait()
            result = b.local.tolist()
        img.sync_all()
        return result

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == [1.0] * 4


def test_predicate_gates_copy(backend):
    def program(img):
        a = img.allocate_coarray(2, np.float64)
        b = img.allocate_coarray(2, np.float64)
        a.local[:] = 9.0
        pred = img.allocate_events(1)
        done = img.allocate_events(1)
        img.sync_all()
        result = None
        if img.rank == 0:
            img.copy_async(b, 1, a, 0, predicate=(pred, 0), dest_event=(done, 0))
            img.compute(1.0)
            pred._post_local(0)
        if img.rank == 1:
            done.wait()
            result = img.now
        img.sync_all()
        return result

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] >= 1.0


def test_dtype_mismatch_rejected(backend):
    def program(img):
        a = img.allocate_coarray(4, np.float64)
        b = img.allocate_coarray(4, np.int64)
        img.copy_async(b, 0, a, 0)

    with pytest.raises(CafError, match="dtype"):
        run_caf(program, 1, backend=backend)
