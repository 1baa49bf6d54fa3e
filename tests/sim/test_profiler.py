"""Unit tests for the exclusive-time category profiler."""

import pytest

from repro.sim.engine import Engine
from repro.sim.profiler import Profiler


def run_profiled(body):
    eng = Engine()
    prof = Profiler(eng, 1)
    eng.spawn(lambda p: body(p, prof))
    eng.run()
    return prof


def test_simple_region_accumulates_time():
    def body(p, prof):
        with prof.region(0, "compute"):
            p.sleep(2.0)

    prof = run_profiled(body)
    assert prof.rank_total(0, "compute") == pytest.approx(2.0)
    assert prof.counts[0]["compute"] == 1


def test_time_outside_regions_not_attributed():
    def body(p, prof):
        p.sleep(5.0)
        with prof.region(0, "compute"):
            p.sleep(1.0)
        p.sleep(5.0)

    prof = run_profiled(body)
    assert prof.rank_total(0, "compute") == pytest.approx(1.0)


def test_nested_region_is_exclusive():
    def body(p, prof):
        with prof.region(0, "outer"):
            p.sleep(1.0)
            with prof.region(0, "inner"):
                p.sleep(3.0)
            p.sleep(1.0)

    prof = run_profiled(body)
    assert prof.rank_total(0, "outer") == pytest.approx(2.0)
    assert prof.rank_total(0, "inner") == pytest.approx(3.0)


def test_same_category_nested_reentrant():
    def body(p, prof):
        with prof.region(0, "c"):
            p.sleep(1.0)
            with prof.region(0, "c"):
                p.sleep(1.0)
            p.sleep(1.0)

    prof = run_profiled(body)
    assert prof.rank_total(0, "c") == pytest.approx(3.0)
    assert prof.counts[0]["c"] == 2


def test_repeated_regions_accumulate():
    def body(p, prof):
        for _ in range(4):
            with prof.region(0, "step"):
                p.sleep(0.5)

    prof = run_profiled(body)
    assert prof.rank_total(0, "step") == pytest.approx(2.0)
    assert prof.counts[0]["step"] == 4


def test_region_exited_on_exception():
    def body(p, prof):
        try:
            with prof.region(0, "risky"):
                p.sleep(1.0)
                raise RuntimeError("expected")
        except RuntimeError:
            pass
        p.sleep(9.0)  # must not be attributed to "risky"

    prof = run_profiled(body)
    assert prof.rank_total(0, "risky") == pytest.approx(1.0)


def test_multi_rank_totals_and_mean():
    eng = Engine()
    prof = Profiler(eng, 2)

    def body(p, rank):
        with prof.region(rank, "work"):
            p.sleep(1.0 + rank)

    eng.spawn(lambda p: body(p, 0))
    eng.spawn(lambda p: body(p, 1))
    eng.run()
    assert prof.total("work") == pytest.approx(3.0)
    assert prof.mean("work") == pytest.approx(1.5)
    assert prof.categories() == ["work"]


def test_breakdown_reports_all_categories():
    def body(p, prof):
        with prof.region(0, "a"):
            p.sleep(1.0)
        with prof.region(0, "b"):
            p.sleep(2.0)

    prof = run_profiled(body)
    assert prof.breakdown() == {"a": pytest.approx(1.0), "b": pytest.approx(2.0)}


def test_nested_region_pauses_parent_clock():
    # The inner region's time must not also accrue to the outer category,
    # and resuming the outer region must restart its clock exactly.
    def body(p, prof):
        with prof.region(0, "outer"):
            p.sleep(0.25)
            with prof.region(0, "inner"):
                p.sleep(4.0)
            with prof.region(0, "inner"):
                p.sleep(2.0)
            p.sleep(0.75)

    prof = run_profiled(body)
    assert prof.rank_total(0, "outer") == pytest.approx(1.0)
    assert prof.rank_total(0, "inner") == pytest.approx(6.0)
    assert prof.counts[0] == {"outer": 1, "inner": 2}


def test_sleep_in_equivalent_to_region_form():
    """sleep_in is the unrolled hot path; accounting, counts, and the trace
    record must match the ``with region(...)`` spelling exactly."""
    from repro.sim.trace import Tracer

    def run(use_sleep_in):
        eng = Engine()
        tracer = Tracer()
        tracer.enable()
        prof = Profiler(eng, 1, tracer)

        def body(p):
            with prof.region(0, "outer"):
                p.sleep(1.0)
                if use_sleep_in:
                    prof.sleep_in(0, p, "io", 2.5)
                else:
                    with prof.region(0, "io"):
                        p.sleep(2.5)
                p.sleep(0.5)

        eng.spawn(body)
        eng.run()
        return prof, tracer

    prof_a, tr_a = run(True)
    prof_b, tr_b = run(False)
    assert prof_a.times == prof_b.times
    assert prof_a.counts == prof_b.counts
    events_a = [(e.kind, e.rank, e.t0, e.t1, dict(e.detail)) for e in tr_a.events]
    events_b = [(e.kind, e.rank, e.t0, e.t1, dict(e.detail)) for e in tr_b.events]
    assert events_a == events_b


def test_breakdown_matches_golden():
    """Profiler output is part of the schedule contract: pinned bit-exactly
    (values recorded at 127ef01, identical under both dispatchers then)."""
    import numpy as np

    from repro.caf import run_caf

    def program(img):
        co = img.allocate_coarray(16, np.float64)
        img.sync_all()
        co.write((img.rank + 1) % img.nranks, np.ones(16))
        img.sync_all()

    run = run_caf(program, 4, backend="mpi")
    assert {k: v.hex() for k, v in run.profiler.breakdown().items()} == {
        "barrier": "0x1.1aee54173f9e0p-17",
        "coarray_write": "0x1.0c6f7a0b5ed88p-19",
    }
    assert run.elapsed.hex() == "0x1.4184c0d5aeda0p-15"
