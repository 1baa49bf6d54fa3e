"""Unit tests for the symbolic op-stream compiler (repro.lint.stream)."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.model import build_model
from repro.lint.stream.interp import (
    StreamCompiler,
    entry_functions,
    launch_hints,
)
from repro.lint.stream.sym import (
    ORDER_CONST,
    ORDER_LINEAR,
    ORDER_LOG,
    Sym,
    from_ast,
    trip_from_range,
)


def compile_src(source: str, **kw):
    source = textwrap.dedent(source)
    model = build_model(ast.parse(source), "test.py")
    return StreamCompiler(model, **kw).compile()


# -- symbolic expressions -------------------------------------------------


def test_sym_orders():
    p = Sym.var("P")
    assert p.order_in_p() == ORDER_LINEAR
    assert Sym.const(7).order_in_p() == ORDER_CONST
    assert Sym.call("log2", p).order_in_p() == ORDER_LOG
    assert Sym.op("*", p, Sym.const(3)).order_in_p() == ORDER_LINEAR


def test_sym_evaluate_and_text():
    expr = from_ast(ast.parse("n * 2 + 1", mode="eval").body, {"n"})
    assert expr.evaluate({"n": 10}) == 21
    assert "n" in expr.text()


def _range_call(src: str) -> ast.Call:
    node = ast.parse(src, mode="eval").body
    assert isinstance(node, ast.Call)
    return node


def test_trip_from_range():
    one_arg = trip_from_range(_range_call("range(n)"), {"n"})
    assert one_arg.evaluate({"n": 5}) == 5
    two_arg = trip_from_range(_range_call("range(2, n)"), {"n"})
    assert two_arg.evaluate({"n": 10}) == 8


# -- entry discovery ------------------------------------------------------


def test_entry_convention_and_launch_hints():
    source = textwrap.dedent(
        """
        def kernel(img, n=8):
            img.sync_all()

        def helper(img):
            pass

        def driver():
            for _ in range(3):
                helper(None)

        def main():
            launch(kernel, 2)
        """
    )
    model = build_model(ast.parse(source), "test.py")
    names = [fn.qualname for fn in entry_functions(model)]
    # helper() is called in-module; kernel is only *referenced* (launched).
    assert names == ["kernel"]
    assert launch_hints(model) == {"kernel": 2}


def test_launch_hint_pins_probe_size():
    streams = compile_src(
        """
        def two_rank_only(img):
            img.sync_all()

        def main():
            run(two_rank_only, 2)
        """,
        nranks=4,
    )
    (entry,) = streams.entries
    assert entry.nranks == 2
    assert len(entry.ranks) == 2


# -- stream compilation ---------------------------------------------------


def test_ring_streams_resolve_peers_concretely():
    streams = compile_src(
        """
        import numpy as np

        def ring(img):
            co = img.allocate_coarray(8)
            co.write((img.rank + 1) % img.nranks, np.ones(8))
            img.sync_all()
        """
    )
    (entry,) = streams.entries
    assert entry.qualname == "ring"
    for rs in entry.ranks:
        kinds = [op.kind for op in rs.ops]
        assert kinds == ["caf.coarray_write", "caf.coll.barrier"]
        put = rs.ops[0]
        assert put.peer == (rs.rank + 1) % entry.nranks
        assert put.nbytes == 64  # 8 float64
        assert put.is_caf_put and not put.tentative


def test_rank_dependent_branch_is_concrete_per_rank():
    streams = compile_src(
        """
        import numpy as np

        def onesided(img):
            co = img.allocate_coarray(4)
            if img.rank == 0:
                co.write(1, np.ones(4))
            img.sync_all()
        """
    )
    (entry,) = streams.entries
    writes = {rs.rank: sum(op.kind == "caf.coarray_write" for op in rs.ops)
              for rs in entry.ranks}
    assert writes == {0: 1, 1: 0, 2: 0, 3: 0}


def test_loop_cap_truncates_and_taints_accounting():
    streams = compile_src(
        """
        import numpy as np

        def hot(img):
            co = img.allocate_coarray(1)
            for _ in range(1000):
                co.write((img.rank + 1) % img.nranks, np.ones(1))
            img.sync_all()
        """,
        loop_cap=8,
    )
    (entry,) = streams.entries
    rs = entry.ranks[0]
    assert rs.truncated
    assert not rs.sound_for_accounting
    # capped at 8 iterations, but the symbolic trip stays exact
    puts = [op for op in rs.ops if op.kind == "caf.coarray_write"]
    assert len(puts) == 8
    assert puts[0].trip_product().evaluate({}) == 1000


def test_interprocedural_ops_attributed_to_callee_site():
    streams = compile_src(
        """
        import numpy as np

        def push(img, co):
            co.write((img.rank + 1) % img.nranks, np.ones(2))

        def main(img):
            co = img.allocate_coarray(2)
            push(img, co)
            img.sync_all()
        """
    )
    (entry,) = streams.entries
    put = entry.ranks[0].ops[0]
    assert put.kind == "caf.coarray_write"
    assert put.func == "push"  # attributed where the call actually is


def test_gasnet_blocking_calls_are_what_gasnet_rank_defines():
    streams = compile_src(
        """
        import numpy as np
        from repro.gasnet.core import GasnetWorld

        def main(img, ctx=None):
            gas = GasnetWorld.get(img.cluster).attach(ctx, 1 << 16)
            peer = (img.rank + 1) % img.nranks
            gas.put(peer, 0, np.ones(4))
            h = gas.put_nb(peer, 64, np.ones(4))
            gas.wait_syncnb(h)
            gas.get(np.empty(2), peer, 0)
            gas.block_until(lambda: True, "demo")
        """
    )
    (entry,) = streams.entries
    for rs in entry.ranks:
        peer = (rs.rank + 1) % 4
        assert [(op.kind, op.peer, op.nbytes) for op in rs.ops] == [
            ("gasnet.put", peer, 32),
            ("gasnet.wait_syncnb", None, 0),
            ("gasnet.get", peer, 16),
            ("gasnet.block_until", None, 0),
        ]
        # GasnetWorld.get(cluster) is the world accessor, not the rank's
        # blocking get; put_nb only starts a transfer.
        assert all(op.is_mpi_block for op in rs.ops)


def test_dunder_main_block_is_skipped():
    streams = compile_src(
        """
        def kernel(img):
            img.sync_all()

        if __name__ == "__main__":
            raise SystemExit(kernel(None))
        """
    )
    assert [e.qualname for e in streams.entries] == ["kernel"]


def test_param_bound_loop_trip_stays_symbolic():
    streams = compile_src(
        """
        import numpy as np

        def sweep(img, iters=16):
            co = img.allocate_coarray(1)
            for _ in range(iters):
                co.write((img.rank + 1) % img.nranks, np.ones(1))
            img.sync_all()
        """,
        loop_cap=4,
    )
    (entry,) = streams.entries
    put = next(op for op in entry.ranks[0].ops if op.is_caf_put)
    trip = put.trip_product()
    assert trip.evaluate({"iters": 100}) == 100
    assert trip.order_in_p() == ORDER_CONST  # iters is not P


def test_step_budget_aborts_instead_of_spinning():
    streams = compile_src(
        """
        def spin(img):
            total = 0
            while True:
                total = total + 1
        """,
        step_budget=200,
    )
    (entry,) = streams.entries
    assert all(rs.aborted or rs.warnings for rs in entry.ranks)


#: Python the interpreter does not model (no app, example, fixture or file
#: of src/ uses it inside an entry point): each binds ``v`` from it.
UNMODELLED = {
    "zip": "v = len(list(zip(xs, xs)))",
    "sorted": "v = sorted(xs)[0]",
    "divmod": "v = divmod(7, 2)[0]",
    "pow": "v = pow(2, 3)",
    "any": "v = 4 if any(xs) else 8",
    "all": "v = 4 if all(xs) else 8",
    "set-literal": "v = len({1, 2, 3})",
    "set-comprehension": "v = len({x for x in xs})",
    "list.pop": "v = xs.pop()",
    "list.index": "v = xs.index(2)",
    "list.extend": "v = xs.extend([4]) or 4",
    "list.insert": "v = xs.insert(0, 4) or 4",
    "list.sort": "v = xs.sort() or 4",
}


@pytest.mark.parametrize("construct", sorted(UNMODELLED))
def test_unmodelled_python_degrades_to_unknown(construct):
    """What the interpreter does not model neither crashes nor accuses: the
    value is UNKNOWN (here: a payload of unknown size), the ops around it
    are still emitted on every rank, and lint reports nothing."""
    source = textwrap.dedent(
        f"""
        import numpy as np

        def main(img):
            co = img.allocate_coarray(8)
            xs = [3, 1, 2]
            {UNMODELLED[construct]}
            img.sync_all()
            co.write((img.rank + 1) % img.nranks, np.ones(v))
            img.sync_all()
        """
    )
    (entry,) = compile_src(source, step_budget=400).entries
    for rs in entry.ranks:
        assert rs.aborted is None
        assert [(op.method, op.nbytes) for op in rs.ops] == [
            ("sync_all", 0),
            ("write", None),
            ("sync_all", 0),
        ]
    assert lint_source(source, "test.py") == []


#: Python the interpreter models exactly, none of it in an app's entry
#: point any more: each binds ``data``, whose bytes it predicts.
MODELLED = {
    "while-exits-on-its-test": ("n = 1\nwhile n < 4:\n    n = n * 2\ndata = np.ones(n)", 32),
    "or-short-circuits": ("n = None\ndata = np.ones(n or 4)", 32),
    "newaxis-on-a-local-view": ("data = co.local[None, :]", 64),
    # TEAM_WORLD is modelled: image i is its index i, and its size is P.
    "world-team-attributes": (
        "team = img.team_world\n"
        "data = np.ones(team.size if team.my_index == img.rank else 1)",
        32,
    ),
    # An omitted parameter is its default, evaluated where the function is
    # defined (here it picks the payload's extent).
    "omitted-default-decides": (
        "def extent(n, halved=False, *, scale=2):\n"
        "    return n // 2 if halved else scale * n\n"
        "data = np.ones(extent(2))",
        32,
    ),
}

#: Extents the interpreter cannot know: the payload is of unknown size.
UNKNOWN_EXTENTS = {
    "bounded-slice": "data = np.ones(sorted(xs)[0])[1:]",
    "unbounded-slice": "data = np.ones(sorted(xs)[0])[:]",
    "index-past-a-lost-rank": "data = np.vstack([co.local, co.local])[1:, 0]",
}


def _payload_program(binding: str) -> str:
    return (
        "import numpy as np\n\n"
        "def main(img):\n"
        "    co = img.allocate_coarray(8)\n"
        "    xs = [3, 1, 2]\n"
        + textwrap.indent(binding, "    ") + "\n"
        "    co.write((img.rank + 1) % img.nranks, data)\n"
        "    img.sync_all()\n"
    )


@pytest.mark.parametrize("construct", sorted(MODELLED))
def test_modelled_python_sizes_the_payload_exactly(construct):
    binding, nbytes = MODELLED[construct]
    source = _payload_program(binding)
    (entry,) = compile_src(source, step_budget=400).entries
    for rs in entry.ranks:
        assert rs.aborted is None and not rs.warnings
        assert [(op.method, op.nbytes) for op in rs.ops] == [
            ("write", nbytes),
            ("sync_all", 0),
        ]
    assert lint_source(source, "test.py") == []


@pytest.mark.parametrize("construct", sorted(UNKNOWN_EXTENTS))
def test_unknown_extent_leaves_the_payload_unknown(construct):
    source = _payload_program(UNKNOWN_EXTENTS[construct])
    (entry,) = compile_src(source, step_budget=400).entries
    for rs in entry.ranks:
        assert rs.aborted is None
        assert [(op.method, op.nbytes) for op in rs.ops] == [
            ("write", None),
            ("sync_all", 0),
        ]
    assert lint_source(source, "test.py") == []
