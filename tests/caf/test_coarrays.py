"""Coarray semantics on both backends."""

import numpy as np
import pytest

from repro.caf import run_caf
from repro.util.errors import CafError

from tests.caf.conftest import handoffs_per_call


def test_local_view_is_writable(backend):
    def program(img):
        co = img.allocate_coarray(8, np.float64)
        co.local[:] = img.rank * 2.0
        return co.local.tolist()

    run = run_caf(program, 3, backend=backend)
    assert run.results[1] == [2.0] * 8


def test_blocking_write_then_remote_read(backend):
    def program(img):
        co = img.allocate_coarray(4, np.float64)
        target = (img.rank + 1) % img.nranks
        co.write(target, np.full(4, float(img.rank)))
        img.sync_all()
        left = (img.rank - 1) % img.nranks
        return co.local.tolist(), float(co.read(left)[0])

    run = run_caf(program, 4, backend=backend)
    for rank, (local, read_back) in enumerate(run.results):
        left = (rank - 1) % 4
        assert local == [float(left)] * 4
        assert read_back == float((left - 1) % 4)


def test_write_with_offset_and_partial_read(backend):
    def program(img):
        co = img.allocate_coarray(10, np.int64)
        if img.rank == 0:
            co.write(1, np.array([7, 8, 9], dtype=np.int64), offset=4)
        img.sync_all()
        if img.rank == 1:
            return co.read(1, offset=4, count=3).tolist(), co.local.tolist()

    run = run_caf(program, 2, backend=backend)
    vals, local = run.results[1]
    assert vals == [7, 8, 9]
    assert local == [0, 0, 0, 0, 7, 8, 9, 0, 0, 0]


def test_blocking_write_remotely_complete_on_return(backend):
    """§3.1: the effect of a write is globally visible when it returns."""

    def program(img):
        co = img.allocate_coarray(1, np.float64)
        img.sync_all()
        if img.rank == 0:
            co.write(1, np.array([42.0]))
            # Direct peek at the target's memory (simulation superpower).
            return float(co.read(1)[0])

    run = run_caf(program, 2, backend=backend)
    assert run.results[0] == 42.0


def test_2d_coarray_shape(backend):
    def program(img):
        co = img.allocate_coarray((3, 4), np.float64)
        assert co.local.shape == (3, 4)
        co.local[...] = img.rank
        img.sync_all()
        other = co.read((img.rank + 1) % img.nranks).reshape(3, 4)
        return float(other[2, 3])

    run = run_caf(program, 3, backend=backend)
    assert run.results == [1.0, 2.0, 0.0]


def test_multiple_coarrays_independent(backend):
    def program(img):
        a = img.allocate_coarray(4, np.float64)
        b = img.allocate_coarray(4, np.float64)
        if img.rank == 0:
            a.write(1, np.full(4, 1.0))
            b.write(1, np.full(4, 2.0))
        img.sync_all()
        return a.local[0], b.local[0]

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == (1.0, 2.0)


def test_out_of_range_target_raises(backend):
    def program(img):
        co = img.allocate_coarray(4)
        co.write(99, np.zeros(4))

    with pytest.raises(CafError, match="out of range"):
        run_caf(program, 2, backend=backend)


def test_out_of_bounds_offset_raises(backend):
    def program(img):
        co = img.allocate_coarray(4)
        co.write(0, np.zeros(4), offset=2)

    with pytest.raises(CafError, match="outside"):
        run_caf(program, 1, backend=backend)


def test_dtype_conversion_on_write(backend):
    def program(img):
        co = img.allocate_coarray(3, np.float64)
        if img.rank == 0:
            co.write(1, [1, 2, 3])  # plain list converts
        img.sync_all()
        return co.local.tolist()

    run = run_caf(program, 2, backend=backend)
    assert run.results[1] == [1.0, 2.0, 3.0]


def test_coarray_on_subteam(backend):
    def program(img):
        team = img.team_split(img.team_world, color=img.rank % 2)
        co = img.allocate_coarray(2, np.float64, team=team)
        co.local[:] = img.rank
        img.barrier()
        partner = (team.my_index + 1) % team.size
        got = co.read(partner)
        img.barrier()
        return float(got[0])

    run = run_caf(program, 4, backend=backend)
    # Even team: world ranks 0,2; odd team: 1,3.
    assert run.results == [2.0, 3.0, 0.0, 1.0]


def test_gups_style_fine_grained_writes(backend):
    """Many small writes to scattered targets land exactly once each."""

    def program(img):
        co = img.allocate_coarray(64, np.int64)
        img.sync_all()
        rng = np.random.default_rng(img.rank)
        writes = []
        for i in range(20):
            target = int(rng.integers(img.nranks))
            slot = int(rng.integers(64))
            writes.append((target, slot))
            co.write(target, np.array([1], np.int64), offset=slot)
        img.sync_all()
        return writes, co.local.copy()

    run = run_caf(program, 4, backend=backend, sim_seed=3)
    # Writes of constant 1: every written slot must hold 1, others 0.
    expected = [np.zeros(64, np.int64) for _ in range(4)]
    for writes, _local in run.results:
        for target, slot in writes:
            expected[target][slot] = 1
    for rank, (_w, local) in enumerate(run.results):
        assert (local == expected[rank]).all()


def _write_n_times(img, n):
    co = img.allocate_coarray(8, np.float64)
    img.sync_all()
    for _ in range(n):
        co.write((img.rank + 1) % img.nranks, np.full(8, 1.0))
    img.sync_all()


def test_mpi_backend_write_costs_one_handoff():
    """``coarray_write`` is MPI_PUT + MPI_WIN_FLUSH run as one script: the
    origin-side cost, the flush overhead and the wait for remote completion
    park the image once, not once each (``Engine.handoffs`` is exact)."""
    assert handoffs_per_call(_write_n_times, nranks=8) <= 2


def test_blocking_read_costs_one_handoff(backend):
    """Blocking ``co.read`` is one script on either backend: on CAF-MPI,
    MPI_RGET and the wait for its request inside the progress engine (2.0
    while ``rget`` and ``progress_wait`` each parked the image)."""

    def program(img, n):
        co = img.allocate_coarray(8, np.float64)
        img.sync_all()
        for _ in range(n):
            co.read((img.rank + 1) % img.nranks)
        img.sync_all()

    assert handoffs_per_call(program, 8, backend) <= 1


def test_gasnet_backend_write_costs_one_handoff(gasnet_signal_spec):
    """``coarray_write`` on CAF-GASNet is gasnet_put — the origin's cost,
    the polls and the wait for the handle — as one script (5.88 parks per
    call per rank when each cost parked the fiber)."""
    per_call = handoffs_per_call(_write_n_times, 8, "gasnet", gasnet_signal_spec)
    assert per_call <= 2


def test_gasnet_sync_all_costs_two_handoffs_at_16_images(gasnet_signal_spec):
    """``sync_all`` = the handle sync + the team's dissemination barrier,
    each one script: log2(P) signal/wait rounds park the image once (23.0
    parks per call per rank at P=16 when each poll and cost did)."""

    def program(img, n):
        for _ in range(n):
            img.sync_all()

    assert handoffs_per_call(program, 16, "gasnet", gasnet_signal_spec) <= 2
