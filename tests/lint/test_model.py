"""Unit tests for the analysis model: handle tagging, rank taint,
event escape, and AM-handler discovery."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_file, protocol
from repro.lint.model import build_model

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("caf*.py"))


def _model(source: str):
    text = textwrap.dedent(source)
    return build_model(ast.parse(text), "mem.py")


def test_handle_tagging_through_aliases_and_subscripts():
    model = _model(
        """\
        def f(img, comm):
            co = img.allocate_coarray(8)
            alias = co
            bank = [img.allocate_events(1) for _ in range(2)]
            first = bank[0]
            win = comm.win_allocate(64)
            mpi = img.mpi()
        """
    )
    assert model.tags["co"] == "coarray"
    assert model.tags["alias"] == "coarray"
    assert model.tags["bank"] == "event"
    assert model.tags["first"] == "event"
    assert model.tags["win"] == "window"
    assert model.tags["mpi"] == "mpi"


def test_self_attributes_are_tracked():
    model = _model(
        """\
        class Halo:
            def __init__(self, img):
                self.co = img.allocate_coarray(8)

            def push(self, right):
                self.co.write(right, [1.0] * 8)
        """
    )
    assert model.tags["self.co"] == "coarray"


def test_rank_taint_propagates_but_nranks_does_not():
    model = _model(
        """\
        def f(img):
            me = img.rank
            color = me % 2
            world = img.nranks
            half = world // 2
        """
    )
    assert "me" in model.rank_tainted
    assert "color" in model.rank_tainted
    assert "world" not in model.rank_tainted
    assert "half" not in model.rank_tainted


def test_event_escape_via_call_argument():
    model = _model(
        """\
        def f(img, helper, right):
            kept = img.allocate_events(1)
            given = img.allocate_events(1)
            kept.notify(right)
            kept.wait()
            helper(given)
        """
    )
    assert "given" in model.escaped_events
    assert "kept" not in model.escaped_events


def test_am_handler_registration_is_discovered():
    model = _model(
        """\
        def pong(token, x):
            token.reply_short(8, x)

        def setup(gas):
            gas.register_handler(7, pong)
        """
    )
    assert model.am_handlers == {"pong"}


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_lint_walks_a_module_once(path, monkeypatch):
    """The model walks the module once and every module-wide scan reads its
    node list: one ``ast.walk`` of an ``ast.Module`` per linted file."""
    walk = ast.walk
    modules = []

    def counted(node):
        if isinstance(node, ast.Module):
            modules.append(node)
        return walk(node)

    monkeypatch.setattr(ast, "walk", counted)
    lint_file(str(path))
    assert len(modules) <= 1


def test_architecture_doc_embeds_the_protocol_table():
    doc = (Path(__file__).parents[2] / "docs" / "architecture.md").read_text()
    assert protocol.render_table() in doc, (
        "docs/architecture.md's protocol table is stale; regenerate it with\n"
        "  PYTHONPATH=src python -c 'from repro.lint.protocol import render_table;"
        " print(render_table())'"
    )
    for model, text in protocol.PRICE_MODELS.items():
        assert f"* `{model}` — {text}" in doc, f"pricing model {model} is not in the doc"
