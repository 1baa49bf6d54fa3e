"""Misuse of public entry points raises documented ReproError subclasses.

The contract under test: library-level misuse surfaces as the layer's own
error type (SimulationError / MpiError / GasnetError / CafError or a
subclass) — never a bare KeyError / IndexError / AssertionError leaking
from the implementation.
"""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.network import MachineSpec, NetFabric
from repro.util.errors import (
    CafError,
    CafTimeoutError,
    DeadlockError,
    GasnetError,
    ImageFailedError,
    MpiError,
    MpiProcFailedError,
    ReproError,
    SimTimeoutError,
    SimulationError,
)
from tests.gasnet.conftest import gasnet_run
from tests.mpi.conftest import mpi_run


def test_hierarchy_is_closed_under_repro_error():
    for exc_type in (
        SimulationError, DeadlockError, SimTimeoutError,
        MpiError, MpiProcFailedError,
        GasnetError,
        CafError, ImageFailedError, CafTimeoutError,
    ):
        assert issubclass(exc_type, ReproError)


# -- simulator entry points ---------------------------------------------------


def _fabric():
    eng = Engine()
    return eng, NetFabric(eng, 4, MachineSpec(name="test"))


def test_fabric_rejects_bad_ranks_sizes_and_occupancy():
    _, fabric = _fabric()
    with pytest.raises(SimulationError):
        fabric.transfer(-1, 1, 10, lambda: None)
    with pytest.raises(SimulationError):
        fabric.transfer(0, 4, 10, lambda: None)
    with pytest.raises(SimulationError):
        fabric.transfer(0, 1, -10, lambda: None)
    with pytest.raises(SimulationError):
        fabric.transfer(0, 1, 10, lambda: None, rx_extra=-1e-6)


def test_fabric_rejects_transfer_after_engine_finished():
    eng, fabric = _fabric()
    eng.spawn(lambda p: p.sleep(1e-6))
    eng.run()
    with pytest.raises(SimulationError):
        fabric.transfer(0, 1, 10, lambda: None)


def test_engine_misuse_is_simulation_error():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.call_at(-1.0, lambda: None)  # scheduling in the past
    eng.spawn(lambda p: p.sleep(1e-6))
    eng.run()
    with pytest.raises(SimulationError):
        eng.run()  # an engine runs once
    with pytest.raises(SimulationError):
        eng.spawn(lambda p: None)  # no spawning after the run


def test_cluster_rejects_nonpositive_nranks():
    with pytest.raises(SimulationError):
        Cluster(0, MachineSpec(name="test"))


# -- MPI entry points ---------------------------------------------------------


def test_mpi_misuse_raises_mpi_error():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        buf = np.zeros(4)
        with pytest.raises(MpiError):
            comm.send(buf, dest=99)  # peer out of range
        with pytest.raises(MpiError):
            comm.recv(buf, source=-2)
        with pytest.raises(MpiError):
            comm.send(np.zeros((4, 4)).T, dest=(ctx.rank + 1) % ctx.nranks)
        peer = (ctx.rank + 1) % ctx.nranks
        with pytest.raises(MpiError, match="tag must be >= 0"):
            comm.isend(buf, dest=peer, tag=-1)  # ANY_TAG only receives
        frozen = np.zeros(4)
        frozen.flags.writeable = False
        with pytest.raises(MpiError, match="read-only"):
            comm.irecv(frozen, source=peer)  # not a numpy ValueError at delivery
        return True

    # Non-contiguous send buffers are rejected eagerly, before any
    # traffic, so asserting inside a single-rank world is race-free.
    _, results = mpi_run(program, 2)
    assert all(results)


def test_mpi_truncation_is_mpi_error():
    def program(mpi, ctx):
        comm = mpi.COMM_WORLD
        if ctx.rank == 0:
            comm.send(np.zeros(64), 1)
        else:
            comm.recv(np.zeros(2), 0)  # 512 bytes into a 16-byte buffer
        return True

    # Truncation is detected at match time, in scheduler context; the
    # library error aborts the run rather than surfacing as a KeyError.
    with pytest.raises(MpiError, match="truncation"):
        mpi_run(program, 2)


# -- GASNet entry points ------------------------------------------------------


def test_gasnet_misuse_raises_gasnet_error():
    def program(g, ctx):
        with pytest.raises(GasnetError):
            g.segment_of(-5)  # negative rank must not wrap around
        with pytest.raises(GasnetError):
            g.segment_of(ctx.nranks)
        with pytest.raises(GasnetError):
            g.put(0, 1 << 30, np.ones(4))  # offset beyond the segment
        return True

    _, results = gasnet_run(program, 2)
    assert all(results)


# -- CAF entry points ---------------------------------------------------------


def test_caf_misuse_raises_caf_error():
    def program(img):
        co = img.allocate_coarray(8)
        ev = img.allocate_events(2)
        img.sync_all()
        with pytest.raises(CafError):
            co.write(99, np.ones(2))  # image index out of range
        with pytest.raises(CafError):
            co.write(0, np.ones(4), offset=6)  # runs past the coarray
        with pytest.raises(CafError):
            co.read(0, offset=-1, count=2)
        with pytest.raises(CafError):
            ev.notify(0, slot=7)  # slot out of range
        with pytest.raises(CafError):
            ev.wait(slot=-1)
        with pytest.raises(CafError):
            img.spawn(99, lambda im: None)
        with pytest.raises(CafError):
            img.sync_images([99])
        img.sync_all()
        return True

    run = run_caf(program, 2, backend="mpi")
    assert all(run.results)


def test_transport_give_up_feeds_image_failed_path():
    """A peer that never acks is declared failed after max_retries: the
    sender's later API calls on it raise ImageFailedError, exactly as if
    the image had crashed (the transport-level failure taxonomy), and so
    does the declared image's own wait on its team."""
    from repro.sim.faults import FaultDecision, FaultPlan

    class PartitionPlan(FaultPlan):
        """Once armed, drops every frame addressed to ``victim``."""

        def __init__(self, victim):
            self.victim = victim
            self.armed = False
            super().__init__()

        @property
        def active(self):
            return True

        def draw(self, src, dst, nbytes):
            self.drawn += 1
            if self.armed and dst == self.victim:
                return FaultDecision(drop=True)
            return FaultDecision()

    plan = PartitionPlan(victim=1)

    def program(img):
        ev = img.allocate_events(1)
        co = img.allocate_coarray(4)
        img.sync_all()
        if img.rank == 0:
            img.ctx.fabric.reliable.max_retries = 3
            plan.armed = True
            ev.notify(1, 0)  # frame is dropped; retries all drop too
            img.ctx.proc.sleep(0.5)  # past the give-up horizon
            assert 1 in img.failed_images()
            with pytest.raises(ImageFailedError):
                co.write(1, np.ones(4))
            return "gave-up"
        try:
            ev.wait(0, timeout=1.0)
        except ImageFailedError as exc:
            return exc.failed_image
        return "notified"

    run = run_caf(program, 2, backend="mpi", reliable=True, faults=plan, deadline=10.0)
    assert run.results[0] == "gave-up"
    assert run.results[1] == 1
    log = run.cluster.failure_log
    assert len(log) == 1 and log[0]["rank"] == 1
    assert log[0]["reason"].startswith("transport")


def test_unknown_backend_is_caf_error():
    with pytest.raises(CafError):
        run_caf(lambda img: None, 2, backend="upc")


def test_bad_events_and_coarray_construction():
    def program(img):
        with pytest.raises(CafError):
            img.allocate_events(0)
        return True

    run = run_caf(program, 1, backend="mpi")
    assert all(run.results)
