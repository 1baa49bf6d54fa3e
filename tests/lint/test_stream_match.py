"""Cross-rank matcher tests: the Fig. 2 variants the syntactic tier
misses, the counting hangs, and no-new-findings over the entire
existing fixture corpus."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.engine import syntactic_findings
from repro.lint.model import build_model
from repro.lint.stream import check_stream, compile_streams
from repro.lint.stream.match import analyze_entry

FIXTURES = Path(__file__).parent / "fixtures"
#: The corpus that predates the stream tier (CAF001–CAF010).
LEGACY = sorted(
    p
    for p in FIXTURES.glob("caf*.py")
    if p.stem.split("_")[0][3:].isdigit() and int(p.stem.split("_")[0][3:]) <= 10
)


def stream_findings(source: str, path: str = "test.py"):
    source = textwrap.dedent(source)
    model = build_model(ast.parse(source), path)
    return check_stream(model, syntactic_findings(model))


def problems_for(source: str):
    source = textwrap.dedent(source)
    model = build_model(ast.parse(source), "test.py")
    out = []
    for entry in compile_streams(model).entries:
        out.extend(analyze_entry(entry))
    return out


# -- legacy corpus stays as-is under the new tier -------------------------


@pytest.mark.parametrize("path", LEGACY, ids=[p.stem for p in LEGACY])
def test_stream_tier_adds_nothing_on_legacy_fixtures(path):
    """The symbolic matcher must not re-report (or newly report) anything
    on the 20 pre-existing fixtures: bad ones already carry their exact
    expected set, ok ones must stay clean."""
    source = path.read_text()
    model = build_model(ast.parse(source), str(path))
    syntactic = syntactic_findings(model)
    assert stream_findings(source, str(path)) == [] or all(
        f.rule.startswith("CAF01") for f in check_stream(model, syntactic)
    )
    # and the full pipeline (syntactic + stream) equals the marker set,
    # which test_corpus.py asserts exactly — here we only need "no CAF012
    # leaks through the dedupe" on the CAF006 fixtures.
    full = lint_source(source, str(path))
    assert not any(f.rule == "CAF012" for f in full)


# -- Fig. 2 variants ------------------------------------------------------


def test_interprocedural_fig2_found_by_matcher_not_syntactic():
    src = """
    import numpy as np

    def _push(img, co):
        co.write((img.rank + 1) % img.nranks, np.ones(8))

    def main(img):
        co = img.allocate_coarray(8)
        comm = img.mpi().COMM_WORLD
        _push(img, co)
        comm.barrier()
    """
    syntactic = syntactic_findings(build_model(ast.parse(textwrap.dedent(src)), "t.py"))
    assert syntactic == []  # per-function scan cannot see across the call
    findings = stream_findings(src)
    assert [f.rule for f in findings] == ["CAF012"]
    assert "pending" in findings[0].message


def test_loop_carried_fig2():
    src = """
    import numpy as np

    def main(img):
        co = img.allocate_coarray(8)
        comm = img.mpi().COMM_WORLD
        for step in range(4):
            if step > 0:
                comm.allreduce(np.zeros(1))
            co.write((img.rank + 1) % img.nranks, np.ones(8))
        img.sync_all()
    """
    assert [f.rule for f in stream_findings(src)] == ["CAF012"]


def test_sync_between_put_and_block_is_clean():
    src = """
    import numpy as np

    def main(img):
        co = img.allocate_coarray(8)
        comm = img.mpi().COMM_WORLD
        co.write((img.rank + 1) % img.nranks, np.ones(8))
        img.sync_all()
        comm.barrier()
    """
    assert stream_findings(src) == []


def test_caf006_same_function_suppresses_caf012():
    # Single-function Fig. 2: syntactic CAF006 fires; the stream tier
    # must not echo it as a second CAF012.
    src = """
    import numpy as np

    def main(img):
        co = img.allocate_coarray(4)
        comm = img.mpi().COMM_WORLD
        co.write((img.rank + 1) % img.nranks, np.ones(4))
        comm.barrier()
    """
    source = textwrap.dedent(src)
    syntactic = syntactic_findings(build_model(ast.parse(source), "t.py"))
    assert any(f.rule == "CAF006" for f in syntactic)
    full = lint_source(source, "t.py")
    assert not any(f.rule == "CAF012" for f in full)


def test_peer_that_keeps_progressing_is_clean():
    # Rank 0 blocks in MPI with a put pending toward rank 1, but rank 1
    # never enters that barrier — it sits in CAF-side progress, so the
    # put completes and there is no hang to report.
    src = """
    import numpy as np

    def main(img):
        co = img.allocate_coarray(4)
        comm = img.mpi().COMM_WORLD
        if img.rank == 0:
            co.write(1, np.ones(4))
            comm.send(np.ones(1), 1)
        else:
            img.sync_images([0])
    """
    problems = [p for p in problems_for(src) if p.kind == "dual-runtime"]
    assert problems == []


# -- counting hangs -------------------------------------------------------


def test_event_starvation_reported_once():
    src = """
    def main(img):
        ev = img.allocate_events(1)
        ev.notify((img.rank + 1) % img.nranks, slot=0)
        ev.wait(slot=0, count=2)
    """
    problems = [p for p in problems_for(src) if p.kind == "event-starvation"]
    assert len(problems) == 1
    assert "2 notif" in problems[0].message


def test_balanced_events_clean():
    src = """
    def main(img):
        ev = img.allocate_events(1)
        ev.notify((img.rank + 1) % img.nranks, slot=0)
        ev.wait(slot=0)
    """
    assert problems_for(src) == []


def test_timed_wait_never_counts_as_hang():
    src = """
    def main(img):
        ev = img.allocate_events(1)
        ev.wait(slot=0, timeout=1e-3)
    """
    assert [p for p in problems_for(src) if p.kind == "event-starvation"] == []


def test_recv_starvation():
    src = """
    import numpy as np

    def main(img):
        comm = img.mpi().COMM_WORLD
        buf = np.zeros(4)
        if img.rank == 0:
            comm.send(np.ones(4), 1)
        else:
            comm.recv(buf, 0)
    """
    problems = [p for p in problems_for(src) if p.kind == "recv-starvation"]
    assert len(problems) == 1


def test_truncated_streams_skip_counting_but_keep_fig2():
    # A huge loop forces truncation at the probe cap: the event ledger
    # would be wrong, so it must stay silent; the prefix-sound Fig. 2
    # scan still fires on what was compiled.
    src = """
    import numpy as np

    def main(img):
        co = img.allocate_coarray(4)
        comm = img.mpi().COMM_WORLD
        ev = img.allocate_events(1)
        for _ in range(10_000):
            ev.notify((img.rank + 1) % img.nranks, slot=0)
        co.write((img.rank + 1) % img.nranks, np.ones(4))
        comm.barrier()
        ev.wait(slot=0, count=3)
    """
    problems = problems_for(src)
    kinds = {p.kind for p in problems}
    assert "dual-runtime" in kinds
    assert "event-starvation" not in kinds
