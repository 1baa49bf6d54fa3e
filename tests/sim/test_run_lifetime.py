"""A finished run frees itself: dropping a run frees its whole object graph
by reference counting, with no cyclic collection.

Each owner cuts its back-edges when a run ends (``Engine._end_run``,
``Cluster._end_run``, the CAF backends' and the GASNet world's
``_end_run``), and the edges that merely repeated another path are gone.
Each case runs with the collector off, drops everything it held, then
checks that a weakref to the cluster is dead and that a collection finds
nothing. On failure the message lists the surviving cycles' edges as
``Type.attr -> Type``: the back-edge a change added, and who must cut it.
"""

import gc
import os
import pathlib
import subprocess
import sys
import types
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.hpl import run_hpl
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf
from repro.gasnet.collectives import TeamExchange
from repro.gasnet.core import GasnetWorld
from repro.gasnet.segment import SegmentAllocator
from repro.mpi import MpiWorld
from repro.obs.capture import capture
from repro.sim.cluster import Cluster, run_program
from repro.sim.faults import FaultPlan
from repro.sim.network import MachineSpec
from repro.util.errors import DeadlockError, SimTimeoutError

ROOT = pathlib.Path(__file__).resolve().parents[2]
BACKENDS = ("mpi", "gasnet")
RA_KW = dict(table_bits_per_image=6, updates_per_image=64, batches=2)
APPS = {
    "ra": (run_randomaccess, RA_KW),
    "fft": (run_fft, dict(m=1 << 10)),
    "hpl": (run_hpl, dict(n=32, block=4)),
    "cgpop": (run_cgpop, dict(ny=16, nx=8, max_iter=8)),
}


# -- the census ------------------------------------------------------------


def _edges(obj, ids):
    """``(label, referent)`` for each referent of ``obj`` among ``ids``."""
    name = type(obj).__name__
    named = []
    if isinstance(obj, dict):
        named += [(f"dict[{key!r}]", value) for key, value in obj.items()]
    elif isinstance(obj, types.FrameType):
        code = obj.f_code.co_qualname
        named += [(f"frame {code}.{k}", v) for k, v in obj.f_locals.items()]
    elif isinstance(obj, types.FunctionType):
        for var, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
            try:
                named.append((f"{obj.__qualname__}.<closure {var}>", cell.cell_contents))
            except ValueError:  # an empty cell
                pass
    elif isinstance(obj, types.MethodType):
        named.append((f"{obj.__func__.__qualname__}.__self__", obj.__self__))
    elif not isinstance(obj, type):
        attrs = dict(getattr(obj, "__dict__", {}))
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
        named += [(f"{name}.{k}", v) for k, v in attrs.items()]
    seen = set()
    for label, ref in named:
        if id(ref) in ids and id(ref) not in seen:
            seen.add(id(ref))
            yield label, ref
    for ref in gc.get_referents(obj):
        if id(ref) in ids and id(ref) not in seen and type(ref) is not dict:
            seen.add(id(ref))
            yield f"{name}->", ref


def _census(garbage) -> str:
    """The edges inside each cycle (strongly connected component, Tarjan)
    of what a collection had to free, counted by ``Type.attr -> Type``."""
    ids = {id(o): o for o in garbage}
    succ = {i: [id(r) for _, r in _edges(o, ids)] for i, o in ids.items()}
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []
    for root in ids:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work += [(v, j + 1), (w, 0)]
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    scc = set()
                    while not scc or w != v:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.add(w)
                    sccs.append(scc)
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
    lines = [f"{len(garbage)} objects left for the collector"]
    for scc in sorted(sccs, key=len, reverse=True):
        edges = Counter(
            f"{label} -> {type(ref).__name__}"
            for v in scc
            for label, ref in _edges(ids[v], ids)
            if id(ref) in scc
        )
        if edges:
            lines.append(f"a cycle of {len(scc)} objects:")
            lines += [f"  {edge}  x{n}" for edge, n in edges.most_common(25)]
    return "\n".join(lines)


def _assert_frees_itself(run_and_drop):
    """``run_and_drop()`` runs something and returns only a weakref to its
    cluster; with the collector off, that must be all it leaves."""
    gc.collect()  # what earlier tests left is not this run's
    was_on = gc.isenabled()
    gc.disable()
    try:
        cluster = run_and_drop()
        alive = cluster() is not None
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            garbage = list(gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(0)
    finally:
        if was_on:
            gc.enable()
    assert not alive and found == 0, _census(garbage)


# -- the cases -------------------------------------------------------------


def _caf(program, nranks, backend, report=False, **kw):
    def run_and_drop():
        run = run_caf(program, nranks, backend=backend, **kw)
        if report:
            run.report(app="ra")
        return weakref.ref(run.cluster)

    return run_and_drop


def _failed(program, nranks, backend, error, **kw):
    def run_and_drop():
        try:
            run_caf(program, nranks, backend=backend, **kw)
        except error as exc:
            return weakref.ref(exc.caf_cluster)
        raise AssertionError(f"the run did not raise {error.__name__}")

    return run_and_drop


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_a_finished_app_run_frees_itself(app, backend):
    program, kw = APPS[app]
    _assert_frees_itself(_caf(program, 4, backend, **kw))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "armed",
    [dict(sanitize=True), dict(metrics=True, report=True), dict(checkpoint_every=1)],
    ids=["sanitize", "metrics+report", "checkpoint_every"],
)
def test_an_armed_run_frees_itself(armed, backend):
    _assert_frees_itself(_caf(run_randomaccess, 4, backend, **armed, **RA_KW))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_with_a_live_tap_frees_itself(backend, tmp_path):
    live = tmp_path / "live.jsonl"
    _assert_frees_itself(_caf(run_randomaccess, 4, backend, live=live, **RA_KW))


def _async_bcast(img):
    buf = np.arange(4.0) if img.rank == 0 else np.zeros(4)
    img.team_broadcast_async(buf, 0)  # runs on a progress agent
    img.cofence()
    return float(buf[3])


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_with_progress_agents_frees_itself(backend):
    _assert_frees_itself(_caf(_async_bcast, 4, backend))


def _returns_its_image(img):
    return img  # a result that reaches its own context


def test_a_run_whose_results_reach_their_context_frees_itself():
    _assert_frees_itself(_caf(_returns_its_image, 2, "mpi"))


def test_a_raw_mpi_run_frees_itself():
    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        out = np.zeros(4)
        mpi.COMM_WORLD.allreduce(np.ones(4), out)
        mpi.COMM_WORLD.ibarrier().wait()  # a progress agent, too
        mpi.win_allocate(shape=4)
        mpi.COMM_WORLD.split(ctx.rank % 2).barrier()
        return float(out[0])

    def run_and_drop():
        cluster, results = run_program(program, 4)
        assert results == [4.0] * 4
        return weakref.ref(cluster)

    _assert_frees_itself(run_and_drop)


def test_a_raw_gasnet_run_frees_itself():
    def program(ctx):
        g = GasnetWorld.get(ctx.cluster).attach(ctx, 1 << 16)
        g.register_handler(1, lambda token: g.activity.add())  # closes over g
        team = TeamExchange(
            g, team_id=0, members=tuple(range(ctx.nranks)), my_index=ctx.rank,
            allocator=SegmentAllocator(g.segment.nbytes),
        )
        team.barrier()
        return ctx.rank

    def run_and_drop():
        cluster = Cluster(4, MachineSpec(name="generic"))
        assert cluster.run(program) == [0, 1, 2, 3]
        return weakref.ref(cluster)

    _assert_frees_itself(run_and_drop)


def _gated_write_never_released(img):
    co = img.allocate_coarray(4)
    gate = img.allocate_events(1)
    # Queued for a post that never comes: the run ends holding the start.
    co.write_async((img.rank + 1) % img.nranks, np.ones(4), predicate=(gate, 0))
    img.sync_all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_left_holding_gated_work_frees_itself(backend):
    _assert_frees_itself(_caf(_gated_write_never_released, 2, backend))


def test_a_cluster_built_but_never_run_frees_itself(tmp_path):
    """Under a recording capture, too: the capture's decision is all the
    cluster holds until it runs."""

    def build_and_drop():
        with capture(record_ir=tmp_path):
            cluster = Cluster(4, MachineSpec(name="generic"))
        return weakref.ref(cluster)

    _assert_frees_itself(build_and_drop)


def _deadlock(img):
    if img.rank == 0:
        img.sync_all()  # the others never arrive


def _hang(img):
    ev = img.allocate_events(1)
    img.sync_all()
    if img.rank == 0:
        ev.wait()  # nobody notifies
    else:
        img.compute(seconds=10.0)  # still running at the deadline


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_deadlocked_run_frees_itself(backend):
    _assert_frees_itself(_failed(_deadlock, 2, backend, DeadlockError))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_the_watchdog_stops_frees_itself(backend):
    _assert_frees_itself(_failed(_hang, 2, backend, SimTimeoutError, deadline=1.0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_an_image_crash_kills_frees_itself(backend):
    # A survivor's pending operation on the crashed image raises, through
    # frames that hold that operation: the raised error must not be the
    # one the operation keeps.
    plan = FaultPlan(seed=1, crashes=[(2, 1e-5)])
    _assert_frees_itself(
        _failed(run_randomaccess, 4, backend, Exception, faults=plan, deadline=1.0, **RA_KW)
    )


def test_the_first_run_of_a_process_frees_itself():
    """In a fresh interpreter, whose first run also sets up the process
    (the C allocator's handle, lazily imported modules)."""
    code = (
        "import gc, weakref\n"
        "gc.disable()\n"
        "from repro.apps.randomaccess import run_randomaccess\n"
        "from repro.caf.program import run_caf\n"
        "gc.collect()\n"  # import-time garbage is not the run's
        f"run = run_caf(run_randomaccess, 4, **{RA_KW!r})\n"
        "cluster = weakref.ref(run.cluster)\n"
        "del run\n"
        "print(cluster() is None, gc.collect())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "0"]
