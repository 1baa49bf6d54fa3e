"""A flush releases exactly the records it completes: this origin's, on
this window, at one target (``flush``) or every target (``flush_all``)."""

import numpy as np

from repro.mpi.world import MpiWorld
from repro.sim.cluster import Cluster
from repro.sim.network import MachineSpec

ORIGINS = (0, 1)
TARGETS = (2, 3)


def test_flush_releases_only_its_origin_and_target():
    cluster = Cluster(4, MachineSpec(name="san-release"), seed=1, sanitize=True)
    san = cluster.sanitizer
    seen = {}

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        comm = mpi.COMM_WORLD
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        me = ctx.rank
        if me in ORIGINS:
            # Disjoint slots per origin: the puts conflict with nothing.
            for t in TARGETS:
                win.put(np.full(2, float(me)), target=t, offset=2 * me)
            # A get's request is its release point, before any flush.
            win.rget(np.empty(1), target=TARGETS[0], offset=4 + me).wait()
        comm.barrier()  # every origin's records exist from here
        if me == 0:
            wid = win.win_id
            open_at = {
                (o, t): san.open_window_records(wid, o, t)
                for o in ORIGINS
                for t in TARGETS
            }
            seen["open"] = {k: len(v) for k, v in open_at.items()}
            win.flush(TARGETS[0])
            seen["after_flush"] = {
                k: [r.released for r in v] for k, v in open_at.items()
            }
            win.flush_all()
            seen["after_flush_all"] = {
                k: [r.released for r in v] for k, v in open_at.items()
            }
            seen["open_0"] = len(san.open_window_records(wid, 0))
            seen["open_1"] = len(san.open_window_records(wid, 1))
        comm.barrier()
        if me == 1:
            win.flush_all()
            seen["open_1_done"] = len(san.open_window_records(win.win_id, 1))
        comm.barrier()
        win.unlock_all()

    cluster.run(program)
    report = cluster.sanitizer.report

    # One unreleased put per (origin, target); the gets are released.
    assert seen["open"] == {(o, t): 1 for o in ORIGINS for t in TARGETS}
    # flush(2) on origin 0 releases origin 0's record at 2 alone.
    assert seen["after_flush"] == {
        (0, 2): [True], (0, 3): [False], (1, 2): [False], (1, 3): [False],
    }
    # flush_all releases the rest of origin 0's; origin 1's stay open.
    assert seen["after_flush_all"] == {
        (0, 2): [True], (0, 3): [True], (1, 2): [False], (1, 3): [False],
    }
    assert (seen["open_0"], seen["open_1"], seen["open_1_done"]) == (0, 2, 0)
    # 2 origins x (2 puts + 1 get): each record released once, the gets by
    # their requests and never again by a flush.
    assert report.stats["records"] == 6
    assert report.stats["released"] == 6
    assert report.clean, report.to_text()
