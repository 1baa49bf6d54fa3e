"""Property-based tests for utilities and the segment allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gasnet.segment import SegmentAllocator
from repro.util.errors import GasnetError
from repro.util.rng import rank_rng
from repro.util.tables import format_table


@settings(max_examples=50, deadline=None)
@given(
    headers=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=5),
    nrows=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
def test_format_table_alignment(headers, nrows, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = [
        [float(rng.standard_normal()) for _ in headers] for _ in range(nrows)
    ]
    text = format_table(headers, rows)
    lines = text.split("\n")
    assert len(lines) == 2 + nrows  # header + rule + rows
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # all lines equal width (aligned columns)


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="cells"):
        format_table(["a", "b"], [[1]])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1 << 30),
    rank_a=st.integers(min_value=0, max_value=100),
    rank_b=st.integers(min_value=0, max_value=100),
)
def test_rank_rngs_reproducible_and_distinct(seed, rank_a, rank_b):
    a1 = rank_rng(seed, rank_a).integers(0, 1 << 30, 8)
    a2 = rank_rng(seed, rank_a).integers(0, 1 << 30, 8)
    assert (a1 == a2).all()
    if rank_a != rank_b:
        b = rank_rng(seed, rank_b).integers(0, 1 << 30, 8)
        assert not (a1 == b).all()


def test_rank_rng_streams_distinct():
    base = rank_rng(1, 2).integers(0, 1 << 30, 8)
    named = rank_rng(1, 2, "updates").integers(0, 1 << 30, 8)
    assert not (base == named).all()


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
)
def test_segment_allocator_never_overlaps(sizes):
    allocator = SegmentAllocator(1 << 20)
    regions = []
    for nbytes in sizes:
        off = allocator.alloc(nbytes)
        assert off % 16 == 0
        for prev_off, prev_len in regions:
            assert off >= prev_off + prev_len or off + nbytes <= prev_off
        regions.append((off, nbytes))
    assert allocator.free >= 0


def test_segment_exhaustion_raises():
    allocator = SegmentAllocator(64)
    allocator.alloc(48)
    with pytest.raises(GasnetError, match="exhausted"):
        allocator.alloc(32)
