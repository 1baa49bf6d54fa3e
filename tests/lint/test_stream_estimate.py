"""Static comm-volume predictions validated against recorded traces.

For each paper app the symbolic streams are evaluated with the same
parameters the instrumented run uses, then compared to the PR 7 trace
the run actually recorded.  Contract:

* per-op-kind **call counts are exact** — the apps' communication
  structure is deterministic, and the interpreter resolves every trip
  count and peer concretely;
* **total bytes** match within a per-app documented tolerance:
  RandomAccess buckets its updates by data-dependent destination, which
  the interpreter models as the expected-value half-split (the
  ``mask-half`` heuristic), so its bytes carry a ≤10% modeling error;
  FFT and CGPOP transfer sizes are closed-form in the parameters and
  must agree exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.cgpop import run_cgpop
from repro.caf import run_caf
from repro.ir import record as ir_record
from repro.lint import cli
from repro.lint.stream import compare_to_trace, predict_file
from repro.lint.stream.estimate import static_op_seconds
from repro.platforms import PLATFORMS
from repro.sim.costs import KINDS
from tests.ir.conftest import APPS, record_run

REPO = Path(__file__).parents[2]

#: app -> (source file, entry qualname, total-bytes tolerance)
VALIDATION = {
    "ra": (REPO / "src/repro/apps/randomaccess.py", "run_randomaccess", 0.10),
    "fft": (REPO / "src/repro/apps/fft.py", "run_fft", 0.0),
    "cgpop": (REPO / "src/repro/apps/cgpop.py", "run_cgpop", 0.0),
}


@pytest.mark.parametrize("app", sorted(VALIDATION))
def test_static_prediction_matches_recorded_trace(app, tmp_path):
    path, entry, tol = VALIDATION[app]
    _, kwargs = APPS[app]
    _, trace = record_run(tmp_path, app, "mpi", "laptop", nranks=4)

    (pred,) = predict_file(path, entry=entry, nranks=4, bindings=dict(kwargs))
    assert pred.aborted == [], pred.aborted

    cmp = compare_to_trace(pred, trace)
    for k in cmp.per_kind:
        assert k.calls_exact, (
            f"{app}/{k.kind}: static {k.static_calls} calls vs "
            f"recorded {k.recorded_calls}"
        )
    assert cmp.total_bytes_rel_err <= tol + 1e-12, (
        f"{app}: static {cmp.static_total_bytes} B vs recorded "
        f"{cmp.recorded_total_bytes} B "
        f"({cmp.total_bytes_rel_err:.2%} > {tol:.0%} tolerance)"
    )


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_static_prediction_matches_cgpop_on_a_block_grid(mode, tmp_path):
    """The same entry point on a 2 x 3 image grid: four-neighbor links,
    column edges included, predicted call for call and byte for byte."""
    path, entry, _ = VALIDATION["cgpop"]
    kwargs = dict(ny=12, nx=8, px=2, mode=mode, max_iter=6)
    with ir_record.recording(tmp_path / f"cgpop-{mode}.npz"):
        run_caf(run_cgpop, 6, PLATFORMS["laptop"], backend="mpi", **kwargs)
    trace = ir_record.last_trace()

    (pred,) = predict_file(path, entry=entry, nranks=6, bindings=kwargs)
    assert pred.aborted == [], pred.aborted
    cmp = compare_to_trace(pred, trace)
    for k in cmp.per_kind:
        assert (k.static_calls, k.static_bytes) == (k.recorded_calls, k.recorded_bytes), k


def test_predict_file_entry_picks_one_of_several(tmp_path):
    path = tmp_path / "two.py"
    path.write_text(
        "def first(img):\n    img.sync_all()\n\n"
        "def second(img):\n    img.sync_all()\n    img.sync_all()\n"
    )
    assert [p.qualname for p in predict_file(path, nranks=2)] == ["first", "second"]
    (pred,) = predict_file(path, entry="second", nranks=2)
    assert pred.qualname == "second"
    assert pred.by_kind["caf.coll.barrier"].calls == 2 * 2


def test_prediction_comm_matrix_tracks_p2p_volume(tmp_path):
    ring = tmp_path / "ring.py"
    ring.write_text(
        "import numpy as np\n"
        "\n"
        "def ring(img, reps=3):\n"
        "    co = img.allocate_coarray(8)\n"
        "    for _ in range(reps):\n"
        "        co.write((img.rank + 1) % img.nranks, np.ones(8))\n"
        "        img.sync_all()\n"
    )
    (pred,) = predict_file(ring, nranks=4, bindings={"reps": 3})
    m = pred.comm_matrix
    assert m is not None and m.shape == (4, 4)
    # each rank sends 3 * 64 B to its right neighbor, nothing else
    for origin in range(4):
        for target in range(4):
            want = 192 if target == (origin + 1) % 4 else 0
            assert m[origin, target] == want
    assert int(m.sum()) == pred.by_kind["caf.coarray_write"].nbytes


def test_prediction_with_machine_spec_prices_ops():
    from repro.sim.network import MachineSpec

    spec = MachineSpec(name="probe", latency=1e-6, ranks_per_node=1)
    path, entry, _ = VALIDATION["fft"]
    (pred,) = predict_file(
        path, entry=entry, nranks=4, bindings={"m": 256}, spec=spec
    )
    assert pred.total_seconds > 0.0
    assert all(t.seconds >= 0.0 for t in pred.by_kind.values())


#: Runtime calls the stream tier used to drop to UNKNOWN although the
#: syntactic vocabulary listed them: each is one row of the protocol table.
ONCE_DROPPED = {
    # One run is a contiguous transfer and records the contiguous kind.
    "win.put_runs(np.ones(4), peer, [(0, 4)])": ("mpi.rput", 32),
    "win.get_runs(np.empty(4), peer, [(0, 4)])": ("mpi.rget", 32),
    "win.put_runs(np.ones(4), peer, [(0, 2), (4, 2)])": ("mpi.put_runs", 32),
    "win.get_runs(np.empty(4), peer, [(0, 2), (4, 2)])": ("mpi.get_runs", 32),
    "win.rflush(peer)": ("mpi.rflush", 0),
    "win.rflush_all()": ("mpi.rflush_all", 0),
    "comm.ireduce(np.ones(4), np.empty(4))": ("mpi.coll.reduce", 32),
    "comm.iallgather(np.ones(4), np.empty(16))": ("mpi.coll.allgather", 32),
}


@pytest.mark.parametrize("call", sorted(ONCE_DROPPED))
def test_prediction_counts_every_call_the_table_declares(call, tmp_path):
    kind, nbytes = ONCE_DROPPED[call]
    prog = tmp_path / "prog.py"
    prog.write_text(
        "import numpy as np\n"
        "\n"
        "def main(img, reps=3):\n"
        "    mpi = img.mpi()\n"
        "    comm = mpi.COMM_WORLD\n"
        "    win = mpi.win_allocate(64)\n"
        "    win.lock_all()\n"
        "    peer = (img.rank + 1) % img.nranks\n"
        "    for _ in range(reps):\n"
        f"        {call}\n"
        "    win.unlock_all()\n"
    )
    (pred,) = predict_file(prog, nranks=4, bindings={"reps": 3})
    assert pred.aborted == []
    assert pred.by_kind[kind].calls == 4 * 3
    assert pred.by_kind[kind].nbytes == 4 * 3 * nbytes


#: A hybrid image driving an MPI-3 window directly: every RMA verb, one
#: flush per target and one flush_all per iteration, inside one lock_all epoch.
WINDOW_PROGRAM = """\
import numpy as np


def main(img, reps=3):
    win = img.mpi().win_allocate(shape=16)
    win.lock_all()
    peer = (img.rank + 1) % img.nranks
    one, got = np.ones(1), np.empty(1)
    for _ in range(reps):
        win.put(np.ones(2), peer)
        win.get(np.empty(2), peer, 2)
        win.accumulate(np.ones(2), peer, 4)
        win.fetch_and_op(one, got, peer, 6)
        win.compare_and_swap(one, one, got, peer, 7)
        win.put_runs(np.ones(2), peer, [(8, 1), (10, 1)])
        win.flush(peer)
        win.flush_all()
    win.unlock_all()
"""
WINDOW_KINDS = (
    "mpi.rput", "mpi.rget", "mpi.accumulate", "mpi.fetch_op", "mpi.cas", "mpi.put_runs",
    "mpi.flush", "mpi.flush_all",
)


def _record_and_predict(source: str, backend: str, tmp_path):
    """Run ``source``'s ``main`` at P=4, reps=3 on ``backend`` under the IR
    recorder, predict it statically, and compare the two."""
    path = tmp_path / "prog.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("prog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with ir_record.recording(tmp_path / "prog.npz"):
        run_caf(module.main, 4, PLATFORMS["laptop"], backend=backend, reps=3)
    (pred,) = predict_file(path, nranks=4, bindings={"reps": 3})
    return compare_to_trace(pred, ir_record.last_trace())


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_hybrid_window_program_matches_recorded_trace(backend, tmp_path):
    cmp = _record_and_predict(WINDOW_PROGRAM, backend, tmp_path)
    assert sorted(k.kind for k in cmp.per_kind) == sorted(WINDOW_KINDS)
    for k in cmp.per_kind:
        assert (k.static_calls, k.static_bytes) == (k.recorded_calls, k.recorded_bytes), k
        assert k.static_calls == 4 * 3, k


#: Strided window transfers over one run and over two: the one-run calls
#: record the contiguous kinds, so static and recorded counts agree.
RUNS_PROGRAM = """\
import numpy as np


def main(img, reps=3):
    win = img.mpi().win_allocate(shape=16)
    win.lock_all()
    peer = (img.rank + 1) % img.nranks
    for _ in range(reps):
        win.put_runs(np.ones(2), peer, [(0, 2)])
        win.get_runs(np.empty(2), peer, [(4, 2)]).wait()
        win.get_runs(np.empty(2), peer, [(8, 1), (10, 1)]).wait()
        win.flush(peer)
    win.unlock_all()
"""


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_one_run_transfers_predict_the_contiguous_kind(backend, tmp_path):
    cmp = _record_and_predict(RUNS_PROGRAM, backend, tmp_path)
    got = {k.kind: (k.static_calls, k.static_bytes) for k in cmp.per_kind}
    assert got == {
        "mpi.rput": (12, 192), "mpi.rget": (12, 192), "mpi.get_runs": (12, 192),
        "mpi.flush": (12, 0),
    }
    for k in cmp.per_kind:
        assert (k.static_calls, k.static_bytes) == (k.recorded_calls, k.recorded_bytes), k


def test_read_async_is_priced_by_its_buffer(tmp_path):
    """``read_async`` fills the caller's buffer and returns nothing: its
    bytes are that buffer's, as CAF-MPI's RGET records them."""
    source = (
        "import numpy as np\n"
        "\n"
        "def main(img, reps=3):\n"
        "    co = img.allocate_coarray(4)\n"
        "    out = np.empty(4)\n"
        "    peer = (img.rank + 1) % img.nranks\n"
        "    for _ in range(reps):\n"
        "        co.read_async(peer, out)\n"
        "    img.sync_all()\n"
    )
    cmp = _record_and_predict(source, "mpi", tmp_path)
    (rget,) = [k for k in cmp.per_kind if k.kind == "mpi.rget"]
    assert (rget.static_calls, rget.static_bytes) == (12, 384)
    assert (rget.recorded_calls, rget.recorded_bytes) == (12, 384)


def test_predict_prints_recorded_kinds_and_skips_bookkeeping(tmp_path, capsys):
    path = tmp_path / "window.py"
    path.write_text(WINDOW_PROGRAM)
    assert cli.main(["--predict", str(path)]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    # lock_all / unlock_all / win_allocate record no op of their own.
    assert sorted(entry["by_kind"]) == sorted(WINDOW_KINDS)
    assert set(entry["by_kind"]) <= set(KINDS)


def test_static_pricing_refuses_a_kind_no_run_records():
    with pytest.raises(ValueError, match="'mpi.lock_all' is not an op kind a run records"):
        static_op_seconds("mpi.lock_all", np.zeros(1), PLATFORMS["laptop"], 4)
