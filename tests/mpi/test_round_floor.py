"""``tools/round_floor.py`` compares ``Comm.barrier`` with a dissemination
barrier written on bare engine primitives. The comparison is like for like
only if both execute the same modelled work: the same events, messages,
virtual time and handoffs."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "round_floor.py"


@pytest.fixture(scope="module")
def round_floor():
    spec = importlib.util.spec_from_file_location("round_floor", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("nprocs", [8, 5])
def test_the_bare_barrier_executes_what_comm_barrier_does(round_floor, nprocs):
    runs = {side: round_floor.run(side, nprocs, 10)[1] for side in round_floor.SIDES}
    lib, bare = (
        (c.engine.events_executed, c.fabric.messages_sent, c.engine.now, c.engine.handoffs)
        for c in runs.values()
    )
    assert lib == bare
    assert lib[1] == 10 * (nprocs - 1).bit_length() * nprocs  # one message per round per rank
