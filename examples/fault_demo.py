#!/usr/bin/env python3
"""Fault injection and fault-tolerant runtime paths, live.

Three demonstrations on the simulated cluster:

1. **Lossy fabric + reliable delivery** — a seeded FaultPlan drops 2% of
   all messages; the ack/retransmit transport recovers every one and the
   RandomAccess tables still verify against the serial reference.
2. **Image crash, surviving gracefully** — image 3 is killed mid-run;
   survivors observe it through ``failed_images()``, get eager
   ``ImageFailedError`` from operations naming it, and an event wait on
   its team raises ``ImageFailedError`` before its timer instead of
   hanging.
3. **The watchdog** — when a crash leaves a survivor retransmitting into
   a dead NIC forever, ``deadline=`` converts the hang into a
   ``SimTimeoutError`` naming who is stuck where.

    python examples/fault_demo.py
"""

import numpy as np

from repro.apps.randomaccess import reference_tables, run_randomaccess
from repro.caf import run_caf
from repro.sim.faults import FaultPlan
from repro.util.errors import ImageFailedError, SimTimeoutError


def demo_reliable_delivery():
    print("== 1. RandomAccess over a fabric that drops 2% of messages ==")
    kwargs = dict(table_bits_per_image=9, updates_per_image=1024, batches=8)
    clean = run_caf(run_randomaccess, 8, backend="mpi", **kwargs)
    lossy = run_caf(
        run_randomaccess,
        8,
        backend="mpi",
        faults=FaultPlan(seed=2014, drop_rate=0.02),
        reliable=True,
        **kwargs,
    )
    ref = reference_tables(42, 8, 9, 1024)
    tables = lossy.cluster._shared["ra-tables"]
    ok = all(np.array_equal(tables[r], ref[r]) for r in range(8))
    rel = lossy.fabric.reliable
    print(f"  messages dropped by the fabric : {lossy.fabric.dropped}")
    print(f"  retransmissions by the transport: {rel.retransmits}")
    print(f"  duplicates filtered             : {rel.duplicates_filtered}")
    print(f"  virtual time: {clean.elapsed * 1e3:.2f} ms clean -> "
          f"{lossy.elapsed * 1e3:.2f} ms lossy "
          f"({lossy.elapsed / clean.elapsed:.2f}x)")
    print(f"  tables match serial reference   : {ok}")


def _crash_program(img):
    co = img.allocate_coarray(8, np.float64)
    ev = img.allocate_events(1)
    img.sync_all()
    if img.rank == 3:
        img.compute(seconds=1.0)  # killed at t=2ms, long before this ends
        return "unreachable"
    img.compute(seconds=6e-3)  # survivors: let the crash land
    report = [f"image {img.rank}: failed_images() -> {img.failed_images()}"]
    try:
        co.write(3, np.ones(8))
    except ImageFailedError as exc:
        report.append(f"  write to 3 raised ImageFailedError (rank {exc.failed_image})")
    try:
        ev.wait(slot=0, timeout=1e-3)  # image 3 was the notifier
    except ImageFailedError as exc:
        report.append(
            f"  event_wait(timeout=1ms) on its team raised ImageFailedError "
            f"(rank {exc.failed_image}) before its timer"
        )
    return report


def demo_crash_surfacing():
    print("\n== 2. Image 3 crashes at t=2ms; survivors carry on ==")
    run = run_caf(
        _crash_program,
        4,
        backend="mpi",
        faults=FaultPlan(seed=1, crashes=[(3, 2e-3)]),
    )
    for rank, lines in enumerate(run.results):
        if rank == 3:
            print(f"image 3: {lines!r} (crashed before returning)")
        else:
            print("\n".join(lines))


def _hang_program(img):
    # The survivor must block in a wait that depends on no image: a wait
    # that depends on the corpse fails (point-to-point traffic with
    # MpiProcFailedError, an event wait on its team with ImageFailedError),
    # so only serving a function the corpse would ship can still hang and
    # reach the watchdog.
    comm = img.mpi().COMM_WORLD
    buf = np.zeros(4)
    comm.barrier()
    t_after_barrier = img.now
    if img.rank == 0:
        comm.send(np.ones(4), 1)  # frame in flight when image 1 dies
        img.serve(1)  # only (dead) image 1 would ship
    else:
        comm.recv(buf, 0)
        img.compute(seconds=1.0)  # killed long before shipping
        img.spawn(0, lambda im: None)
    return t_after_barrier


def demo_watchdog():
    print("\n== 3. A crash-induced hang, caught by the watchdog ==")
    from repro.sim.network import MachineSpec

    spec = MachineSpec(name="demo", latency=1e-3, ranks_per_node=1)
    # Deterministic replay: a fault-free probe run finds when the exchange
    # starts, so the crash lands while rank 0's frame is on the wire.
    probe = run_caf(_hang_program, 2, spec, backend="mpi", reliable=True)
    crash_at = max(probe.results) + 0.5e-3
    try:
        run_caf(
            _hang_program,
            2,
            spec,
            backend="mpi",
            faults=FaultPlan(seed=1, crashes=[(1, crash_at)]),
            reliable=True,
            deadline=crash_at + 0.05,
        )
    except SimTimeoutError as exc:
        print(f"SimTimeoutError: {exc}")
        for rank, why in sorted(exc.blocked.items()):
            print(f"  image {rank} blocked in: {why} "
                  f"(last progress t={exc.last_progress[rank]:.6f}s)")


def main():
    demo_reliable_delivery()
    demo_crash_surfacing()
    demo_watchdog()


if __name__ == "__main__":
    main()
