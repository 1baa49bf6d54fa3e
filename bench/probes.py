"""Layer probes: one small timed loop per layer, workload-independent.

``python -m bench.probes '<json>'`` (key ``smoke``) runs them all in this
process, pinned to one core, and prints one JSON object ``name -> value``.
Each rate is the median of three short repeats.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

BIG = 1024  # the rank count of the ``p1024`` probes; smoke runs use 16


def _median_rate(fn, n: int) -> float:
    """``n`` operations per call of ``fn(n)``, as operations per second."""
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(n)
        rates.append(n / (time.perf_counter() - t0))
    return statistics.median(rates)


# -- sim.engine ---------------------------------------------------------------


def _sleepers(nprocs: int, sleeps: int):
    """``nprocs`` procs each sleeping ``sleeps`` times on interleaved
    deadlines, so every sleep but a lone proc's hands the baton on."""
    from repro.sim.engine import Engine

    engine = Engine()

    def body(proc):
        for _ in range(sleeps):
            proc.sleep(1.0)

    for _ in range(nprocs):
        engine.spawn(body)
    return engine


def inline_sleep(n: int) -> None:
    _sleepers(1, n).run()


def handoff(n: int) -> None:
    _sleepers(2, n // 2).run()


def handoff_big(nprocs: int, per_proc: int) -> float:
    """Handoffs per second with ``nprocs`` fibers alive; spawn and teardown
    are timed by :func:`spawn_us` instead."""
    from repro.sim.engine import Engine

    engine = Engine()
    marks = []

    def body(proc):
        proc.sleep(1.0)  # every fiber started and parked once
        if proc.pid == 0:
            marks.append(time.perf_counter())
        for _ in range(per_proc):
            proc.sleep(1.0)
        if proc.pid == nprocs - 1:
            marks.append(time.perf_counter())

    for _ in range(nprocs):
        engine.spawn(body)
    engine.run()
    return nprocs * per_proc / (marks[1] - marks[0])


def spawn_us(nprocs: int) -> float:
    """Microseconds per proc to spawn, start, finish and join a fiber."""
    from repro.sim.engine import Engine

    t0 = time.perf_counter()
    engine = Engine()
    for _ in range(nprocs):
        engine.spawn(lambda proc: None)
    engine.run()
    return (time.perf_counter() - t0) / nprocs * 1e6


def callbacks(n: int) -> None:
    from repro.sim.engine import Engine

    engine = Engine()
    left = [n]

    def tick():
        left[0] -= 1
        if left[0]:
            engine.call_in(1.0, tick)

    engine.call_in(1.0, tick)
    engine.run()


# -- sim.network ----------------------------------------------------------------


def transfers(nranks: int):
    import random

    from repro.sim.engine import Engine
    from repro.sim.network import MachineSpec, NetFabric

    def run(n: int) -> None:
        engine = Engine()
        fabric = NetFabric(engine, nranks, MachineSpec("generic"))
        rng = random.Random(1)
        pairs = [(rng.randrange(nranks), rng.randrange(nranks)) for _ in range(n)]

        def noop():
            pass

        for src, dst in pairs:
            fabric.transfer(src, dst, 64, noop)
        engine.run()

    return run


# -- mpi / gasnet / caf -----------------------------------------------------------


def _cluster(nranks: int):
    from repro.sim.cluster import Cluster
    from repro.sim.network import MachineSpec

    return Cluster(nranks, MachineSpec("generic"))


def mpi_put_flush(n: int) -> None:
    import numpy as np

    from repro.mpi.world import MpiWorld

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        if ctx.rank == 0:
            data = np.ones(8)
            for _ in range(n):
                win.put(data, 1)
                win.flush(1)
        mpi.COMM_WORLD.barrier()
        win.unlock_all()

    _cluster(2).run(program)


def mpi_flush_all_us(nranks: int, n: int) -> float:
    """Host microseconds per put + ``flush_all`` to one dirty target while
    ``nranks - 1`` other ranks sit parked on a counter that carries no
    traffic, so nothing else is dispatched inside the timed calls."""
    import numpy as np

    from repro.mpi.world import MpiWorld
    from repro.sim.sync import Counter

    done = Counter("probe.done")
    spent = []

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        mpi.COMM_WORLD.barrier()
        if ctx.rank == 0:
            ctx.proc.sleep(1.0)  # virtual: the barrier's traffic has drained
            data = np.ones(8)
            t0 = time.perf_counter()
            for _ in range(n):
                win.put(data, 1)
                win.flush_all()
            spent.append(time.perf_counter() - t0)
            done.add()
        else:
            done.wait_geq(ctx.proc, 1)
        win.unlock_all()

    _cluster(nranks).run(program)
    return spent[0] / n * 1e6


def _gasnet_pair(body) -> None:
    from repro.gasnet.core import GasnetWorld

    def program(ctx):
        g = GasnetWorld.get(ctx.cluster).attach(ctx, 1 << 16)
        body(g, ctx)

    _cluster(2).run(program)


def gasnet_put(n: int) -> None:
    import numpy as np

    def body(g, ctx):
        if ctx.rank == 0:
            data = np.ones(64, np.uint8)
            for _ in range(n):
                g.put(1, 0, data)

    _gasnet_pair(body)


def gasnet_am_roundtrip(n: int) -> None:
    def body(g, ctx):
        got = [0]

        def pong(token, x):
            got[0] += 1

        g.register_handler(1, lambda token, x: token.reply_short(2, x))
        g.register_handler(2, pong)
        if ctx.rank == 0:
            for i in range(n):
                g.am_request_short(1, 1, i)
                g.block_until(lambda: got[0] > i, "probe: awaiting reply")
            g.am_request_short(1, 2, 0)  # releases rank 1
        else:
            g.block_until(lambda: got[0], "probe: serving requests")

    _gasnet_pair(body)


def caf_empty_run(backend: str, nranks: int) -> float:
    from repro.caf import run_caf

    t0 = time.perf_counter()
    run_caf(lambda img: img.sync_all(), nranks, backend=backend)
    return time.perf_counter() - t0


# -- apps ---------------------------------------------------------------------------


def ra_kernel(n: int) -> None:
    import numpy as np

    from repro.apps.randomaccess import apply_updates, generate_updates

    table = np.zeros(1 << 16, np.uint64)
    apply_updates(table, generate_updates(1, 0, n, 40), (1 << 16) - 1)


def fft_kernel(log2_m: int) -> float:
    import numpy as np

    block = np.random.default_rng(1).standard_normal(1 << log2_m) + 0j
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.fft.fft(block)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_all(smoke: bool) -> dict[str, float]:
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    big = 16 if smoke else BIG
    k = 20 if smoke else 1  # smoke divides every loop count by this
    out: dict[str, float] = {}
    # First, while this process's peak RSS is still only imports.
    out["caf.empty_run_s.gasnet.p1024"] = caf_empty_run("gasnet", big)
    out["caf.empty_run_rss_mb.gasnet.p1024"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out["caf.empty_run_s.mpi.p1024"] = caf_empty_run("mpi", big)
    out["sim.engine.inline_sleep_per_s"] = _median_rate(inline_sleep, 200_000 // k)
    pinned = _median_rate(handoff, 20_000 // k)
    out["sim.engine.handoff_per_s"] = pinned
    os.sched_setaffinity(0, allowed)
    out["sim.engine.handoff_unpinned_ratio"] = _median_rate(handoff, 8_000 // k) / pinned
    os.sched_setaffinity(0, {allowed[-1]})
    out["sim.engine.handoff_p1024_per_s"] = handoff_big(big, 30 // min(k, 10))
    out["sim.engine.spawn_us_per_proc"] = spawn_us(big)
    out["sim.engine.callback_per_s"] = _median_rate(callbacks, 100_000 // k)
    out["sim.network.transfer_per_s"] = _median_rate(transfers(big), 30_000 // k)
    out["mpi.put_flush_per_s"] = _median_rate(mpi_put_flush, 4_000 // k)
    out["mpi.flush_all_us_p1024"] = mpi_flush_all_us(big, 400 // k)
    out["gasnet.put_per_s"] = _median_rate(gasnet_put, 4_000 // k)
    out["gasnet.am_roundtrip_per_s"] = _median_rate(gasnet_am_roundtrip, 2_000 // k)
    out["apps.ra_kernel_mupd_per_s"] = _median_rate(ra_kernel, 400_000 // k) / 1e6
    out["apps.fft_kernel_s"] = fft_kernel(14 if smoke else 20)
    return out


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    from bench.spec import ROOT

    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run_all(args["smoke"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
