"""Function-shipping futures."""

import numpy as np

from repro.caf import run_caf
from repro.util.errors import CafError


def _square(img, x):
    return x * x


def test_spawn_future_returns_value(backend):
    def program(img):
        if img.rank == 0:
            fut = img.spawn_future(1, _square, 7)
            return fut.wait()
        # Targets blocked outside CAF never run handlers (the Figure 2
        # lesson); serve the one incoming request explicitly.
        img.serve(1)

    run = run_caf(program, 2, backend=backend)
    assert run.results[0] == 49


def _read_local(img, offset):
    co = img.cluster.shared("fut-coarrays", dict)[img.rank]
    return float(co.local[offset])


def test_future_fetches_remote_state(backend):
    """The classic use: compute *where the data is* and return the answer."""

    def program(img):
        co = img.allocate_coarray(8, np.float64)
        co.local[:] = img.rank * 100.0 + np.arange(8)
        img.cluster.shared("fut-coarrays", dict)[img.rank] = co
        img.sync_all()
        fut = img.spawn_future((img.rank + 1) % img.nranks, _read_local, 3)
        value = fut.wait()  # waiting also serves the neighbor's request
        img.sync_all()
        return value

    run = run_caf(program, 4, backend=backend)
    assert run.results == [103.0, 203.0, 303.0, 3.0]


def test_multiple_outstanding_futures(backend):
    def program(img):
        if img.rank == 0:
            futures = [
                img.spawn_future(t, _square, t) for t in range(img.nranks)
            ]
            return [f.wait() for f in futures]
        img.serve(1)

    run = run_caf(program, 4, backend=backend)
    assert run.results[0] == [0, 1, 4, 9]


def test_future_done_flag_and_result(backend):
    def program(img):
        if img.rank == 0:
            fut = img.spawn_future(1, _square, 3)
            try:
                fut.result()
                raise AssertionError("result() before completion must raise")
            except CafError:
                pass
            fut.wait()
            assert fut.done
            return fut.result()
        img.serve(1)

    run = run_caf(program, 2, backend=backend)
    assert run.results[0] == 9


def _chain_future(img, depth):
    if depth == 0:
        return img.rank
    fut = img.spawn_future((img.rank + 1) % img.nranks, _chain_future, depth - 1)
    return fut.wait()


def test_nested_futures(backend):
    """A shipped function can itself spawn futures (progress reentrancy)."""

    def program(img):
        if img.rank == 0:
            fut = img.spawn_future(1, _chain_future, 2)
            return fut.wait()
        img.serve(1)

    run = run_caf(program, 3, backend=backend)
    # 0 ships depth2 to 1, 1 ships depth1 to 2, 2 ships depth0 to 0 -> 0.
    assert run.results[0] == 0


def test_future_labels_do_not_depend_on_what_ran_earlier_in_the_process(backend):
    """Futures are numbered per image, per run — not per process."""

    def program(img):
        if img.rank == 0:
            futures = [img.spawn_future(1, lambda target: target.rank) for _ in range(2)]
            return [(f._event.label, f.wait()) for f in futures]
        img.serve(2)

    runs = [run_caf(program, 2, backend=backend).results[0] for _ in range(3)]
    assert runs[0] == runs[1] == runs[2] == [("caf-future-0", 1), ("caf-future-1", 1)]
