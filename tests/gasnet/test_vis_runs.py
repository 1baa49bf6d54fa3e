"""GASNet VIS-style strided puts/gets."""

import numpy as np
import pytest

from repro.util.errors import GasnetError

from tests.gasnet.conftest import gasnet_run


def test_put_runs_nb_scatters(run):
    def program(g, ctx):
        if ctx.rank == 0:
            h = g.put_runs_nb(1, [(0, 3), (10, 3)], np.arange(6, dtype=np.uint8))
            g.wait_syncnb(h)
            assert g.segment_of(1)[:13].tolist() == [
                0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 3, 4, 5,
            ]

    gasnet_run(program, 2)


def test_get_runs_nb_gathers(run):
    def program(g, ctx):
        g.segment[:16] = np.arange(16, dtype=np.uint8) + 100 * (ctx.rank % 2)
        # Ensure both segments are initialized before anyone reads.
        g.put(1 - ctx.rank, 100, np.array([1], np.uint8))
        out = np.zeros(4, np.uint8)
        h = g.get_runs_nb(out, 1 - ctx.rank, [(2, 2), (12, 2)])
        g.wait_syncnb(h)
        return out.tolist()

    _, results = gasnet_run(program, 2)
    assert results[0] == [102, 103, 112, 113]
    assert results[1] == [2, 3, 12, 13]


def test_put_runs_size_mismatch(run):
    def program(g, ctx):
        g.put_runs_nb(0, [(0, 4)], np.zeros(2, np.uint8))

    with pytest.raises(GasnetError, match="runs cover"):
        gasnet_run(program, 1)


def test_put_runs_bounds_checked(run):
    def program(g, ctx):
        g.put_runs_nb(0, [(1 << 20, 4)], np.zeros(4, np.uint8))

    with pytest.raises(GasnetError, match="outside rank"):
        gasnet_run(program, 1)


def test_runs_single_wire_message(run):
    def program(g, ctx):
        before = ctx.cluster.fabric.messages_sent
        if ctx.rank == 0:
            h = g.put_runs_nb(1, [(i * 8, 4) for i in range(8)], np.ones(32, np.uint8))
            g.wait_syncnb(h)
        return ctx.cluster.fabric.messages_sent - before

    _, results = gasnet_run(program, 2)
    assert results[0] == 1


def test_put_runs_non_uniform_lengths(run):
    def program(g, ctx):
        if ctx.rank == 0:
            data = np.arange(1, 7, dtype=np.uint8)
            h = g.put_runs_nb(1, [(0, 1), (5, 3), (12, 2)], data)
            g.wait_syncnb(h)
            seg = g.segment_of(1)[:14].tolist()
            assert seg == [1, 0, 0, 0, 0, 2, 3, 4, 0, 0, 0, 0, 5, 6]

    gasnet_run(program, 2)


def test_interleaved_runs_from_two_origins(run):
    def program(g, ctx):
        if ctx.rank < 2:
            fill = np.full(4, ctx.rank + 1, np.uint8)
            runs = [(0, 2), (4, 2)] if ctx.rank == 0 else [(2, 2), (6, 2)]
            g.wait_syncnb(g.put_runs_nb(2, runs, fill))
        # Everyone settles before rank 2 inspects its segment.
        g.put((ctx.rank + 1) % 3, 100, np.array([1], np.uint8))
        g.block_until(lambda: g.segment[100] == 1, "settle")
        return g.segment[:8].tolist()

    _, results = gasnet_run(program, 3)
    assert results[2] == [1, 1, 2, 2, 1, 1, 2, 2]


def test_get_runs_nb_refuses_a_non_contiguous_buffer_at_the_call(run):
    def program(g, ctx):
        out = np.zeros((2, 4))[:, :2]  # 32 bytes, strided
        try:
            g.get_runs_nb(out, 0, [(0, 16), (64, 16)])
        except GasnetError as exc:
            return str(exc)

    _, results = gasnet_run(program, 1)
    assert "C-contiguous" in results[0] and "np.ascontiguousarray" in results[0]
