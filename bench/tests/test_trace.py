"""The attribution clock and the patching around it.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` (not part of
tier-1: ``pyproject.toml`` limits that to ``tests/``).
"""

import time

from repro.sim.engine import Engine, Proc

from bench.trace import LAYERS, OTHER, Tracer


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_same_layer_spans_are_not_double_counted():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "mpi", "inner")
    outer = tracer.wrap(lambda: inner(), "mpi", "outer")
    other = tracer.wrap(lambda: outer(), "caf", "other")
    tracer.reset()  # clock reads 1
    other()  # boundaries at 2, 3, 4, 5, 6, 7
    tracer.stop()  # 8
    ops = tracer.by_op()
    # One tick between consecutive boundaries; each is charged exactly once.
    assert ops["mpi"]["inner"] == {"self_s": 1.0, "calls": 1}
    assert ops["mpi"]["outer"] == {"self_s": 2.0, "calls": 1}
    assert ops["caf"]["other"] == {"self_s": 2.0, "calls": 1}
    metrics = tracer.metrics()
    assert metrics["mpi.self_s"] == 3.0  # not 5.0: outer's span covers inner's
    assert metrics["mpi.calls"] == 2
    assert metrics[f"{OTHER}.self_s"] == 2.0  # reset -> first entry, last exit -> stop
    # Spans carry id, op, start, end, parent; inner's parent is outer's span.
    by_id = {s[0]: s for s in tracer.spans}
    assert by_id[2][4] == 1 and by_id[1][4] == 0 and by_id[0][4] == -1


def test_self_times_of_a_two_fiber_program_sum_to_wall():
    tracer = Tracer()
    work = tracer.wrap(_spin, "apps", "work")
    sleep = tracer.wrap(Proc.sleep, "sim.engine", "Proc.sleep")

    def body(proc):
        for _ in range(20):
            work(0.002)
            sleep(proc, 1.0)  # interleaved deadlines: every sleep switches fibers

    engine = Engine()
    engine.spawn(body)
    engine.spawn(body)
    tracer.reset()
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    tracer.stop()
    metrics = tracer.metrics()
    total = sum(metrics[f"{layer}.self_s"] for layer in (*LAYERS, OTHER))
    assert abs(total - wall) <= 0.02 * wall
    # The busy loops are the apps layer's and nobody else's: time a fiber
    # spends parked inside sleep() while the other one works is not the
    # engine's.
    assert 0.08 <= metrics["apps.self_s"] <= 0.08 + 0.25 * wall
    assert metrics["apps.calls"] == 40 and metrics["sim.engine.calls"] == 40


def test_install_wraps_and_restore_puts_the_originals_back():
    from repro.apps import randomaccess
    from repro.experiments import _perf
    from repro.mpi.window import Window

    originals = (Proc.sleep, Window.rput, randomaccess.run_randomaccess)
    tracer = Tracer()
    tracer.install()
    try:
        assert Proc.sleep.__wrapped__ is originals[0]
        assert Window.rput.__wrapped__ is originals[1]
        # ``from ... import`` copies made before install follow the patch.
        assert _perf.run_randomaccess is randomaccess.run_randomaccess
        assert _perf.run_randomaccess.__wrapped__ is originals[2]
    finally:
        tracer.restore()
    assert (Proc.sleep, Window.rput, randomaccess.run_randomaccess) == originals
    assert _perf.run_randomaccess is originals[2]
