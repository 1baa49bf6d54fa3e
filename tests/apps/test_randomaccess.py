"""RandomAccess: routing correctness against the serial reference."""

import pytest

from repro.apps.randomaccess import (
    generate_updates,
    reference_tables,
    run_randomaccess,
)
from repro.caf import run_caf
from repro.util.errors import CafError


@pytest.mark.parametrize("nranks", [1, 2, 4, 8])
def test_tables_match_serial_reference(backend, nranks):
    kw = dict(table_bits_per_image=6, updates_per_image=256, batches=4, seed=9)
    run = run_caf(run_randomaccess, nranks, backend=backend, **kw)
    tables = run.cluster._shared["ra-tables"]
    expected = reference_tables(9, nranks, 6, 256)
    for rank in range(nranks):
        assert (tables[rank] == expected[rank]).all(), f"rank {rank} table differs"


def test_gups_metric_positive(backend):
    run = run_caf(
        run_randomaccess,
        4,
        backend=backend,
        table_bits_per_image=6,
        updates_per_image=128,
        batches=2,
    )
    for res in run.results:
        assert res.gups > 0
        assert res.elapsed > 0
        assert res.nranks == 4


def test_non_power_of_two_rejected(backend):
    with pytest.raises(CafError, match="power-of-two") as info:
        run_caf(run_randomaccess, 3, backend=backend, updates_per_image=16)
    assert str(info.value).endswith("run on a power-of-two number of images"), str(info.value)


def test_updates_deterministic():
    a = generate_updates(1, 2, 100, 20)
    b = generate_updates(1, 2, 100, 20)
    c = generate_updates(1, 3, 100, 20)
    assert (a == b).all()
    assert not (a == c).all()


def test_single_batch_roundtrip(backend):
    run = run_caf(
        run_randomaccess,
        2,
        backend=backend,
        table_bits_per_image=5,
        updates_per_image=64,
        batches=1,
    )
    tables = run.cluster._shared["ra-tables"]
    expected = reference_tables(42, 2, 5, 64)
    for rank in range(2):
        assert (tables[rank] == expected[rank]).all()


def test_profile_categories_present():
    run = run_caf(
        run_randomaccess,
        4,
        backend="mpi",
        table_bits_per_image=6,
        updates_per_image=256,
        batches=4,
    )
    cats = run.profiler.categories()
    for needed in ("coarray_write", "event_notify", "event_wait", "computation"):
        assert needed in cats


def test_checksum_consistent_across_backends():
    kw = dict(table_bits_per_image=6, updates_per_image=256, batches=4, seed=1)
    mpi = run_caf(run_randomaccess, 4, backend="mpi", **kw)
    gas = run_caf(run_randomaccess, 4, backend="gasnet", **kw)
    assert [r.table_checksum for r in mpi.results] == [
        r.table_checksum for r in gas.results
    ]
