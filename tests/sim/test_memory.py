"""Unit tests for the runtime memory ledger."""

import pytest

from repro.sim.memory import MB, MemoryMeter
from repro.util.errors import SimulationError


def test_alloc_and_rank_bytes():
    m = MemoryMeter(2)
    m.alloc(0, "mpi/base", 10 * MB)
    m.alloc(0, "mpi/eager", 2 * MB)
    m.alloc(1, "gasnet/base", 5 * MB)
    assert m.rank_bytes(0) == 12 * MB
    assert m.rank_mb(1) == pytest.approx(5.0)


def test_prefix_filtering():
    m = MemoryMeter(1)
    m.alloc(0, "mpi/base", 4 * MB)
    m.alloc(0, "gasnet/base", 1 * MB)
    assert m.rank_mb(0, prefix="mpi/") == pytest.approx(4.0)
    assert m.rank_mb(0, prefix="gasnet/") == pytest.approx(1.0)
    assert m.rank_mb(0) == pytest.approx(5.0)


def test_free_reduces_and_removes():
    m = MemoryMeter(1)
    m.alloc(0, "buf", 100.0)
    m.free(0, "buf", 40.0)
    assert m.rank_bytes(0) == pytest.approx(60.0)
    m.free(0, "buf", 60.0)
    assert m._ledgers[0] == {}


def test_overfree_rejected():
    m = MemoryMeter(1)
    m.alloc(0, "buf", 10.0)
    with pytest.raises(SimulationError):
        m.free(0, "buf", 20.0)


def test_negative_alloc_rejected():
    m = MemoryMeter(1)
    with pytest.raises(SimulationError):
        m.alloc(0, "buf", -1.0)


def test_repeated_alloc_same_label_accumulates():
    m = MemoryMeter(1)
    m.alloc(0, "win", 10.0)
    m.alloc(0, "win", 15.0)
    assert m.rank_bytes(0) == pytest.approx(25.0)
