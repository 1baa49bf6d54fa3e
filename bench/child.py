"""One repetition of one workload, in a fresh interpreter.

``python -m bench.child '<json>'`` with keys ``workload``, ``seed``,
``traced``, ``smoke`` and ``spawned`` (the parent's ``time.time()`` just
before it started this process). Prints one JSON record as its last line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def pin(cpus) -> list[int]:
    """Apply a workload's ``cpus`` (1 or "all") to this process. Pinned
    runs take the last allowed core: core 0 also serves the parent and
    most interrupts."""
    allowed = sorted(os.sched_getaffinity(0))
    if cpus == 1:
        os.sched_setaffinity(0, {allowed[-1]})
    return sorted(os.sched_getaffinity(0))


def install_tally() -> dict:
    """Sum the exact counts over every ``Cluster`` run from here on.

    One class-level wrapper around ``Cluster.run``, called once per
    simulation; experiments build their clusters internally, so this is the
    only outside view of ``events_executed``."""
    from repro.sim.cluster import Cluster

    from bench.spec import EXACT_COUNTS

    tally = dict.fromkeys(("clusters", *EXACT_COUNTS), 0)
    original = Cluster.run

    def run(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            engine, fabric = self.engine, self.fabric
            tally["clusters"] += 1
            tally["sim.engine.events"] += engine.events_executed
            tally["sim.engine.stale_wakes_dropped"] += engine.stale_wakes_dropped
            tally["sim.network.messages"] += fabric.messages_sent
            tally["sim.network.bytes"] += fabric.bytes_sent
            tally["sim.virtual_s"] += engine.now
            digest = engine.order_digest()
            if digest is not None:  # added, not XORed: equal digests must not cancel
                tally["sim.order_digest48"] = (
                    tally["sim.order_digest48"] + int(digest[:12], 16)
                ) % (1 << 48)

    Cluster.run = run
    return tally


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    from bench.spec import EXACT_COUNTS, RESULTS, ROOT, load_spec

    wl = load_spec()["workloads"][args["workload"]]
    affinity = pin(wl["cpus"])
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # lint paths and benchmarks/ are relative to the root
    RESULTS.mkdir(exist_ok=True)
    tally = install_tally()
    tracer = None
    if args["traced"]:
        from bench.trace import Tracer

        # The order digest is an exact count; only traced runs pay for it.
        os.environ["REPRO_SIM_DIGEST"] = "1"
        tracer = Tracer()
        tracer.install()
    from repro.sim.engine import Proc

    from bench.reference import reference_s
    from bench.workloads import WORKLOADS

    params = wl["smoke"] if args["smoke"] else wl["params"]
    run, check = WORKLOADS[args["workload"]](params, args["seed"])

    setup_raw_s = time.time() - args["spawned"]
    ref_before = reference_s()
    for key in tally:
        tally[key] = 0
    if tracer is not None:
        tracer.reset()
    cpu0 = os.times()
    t0 = time.perf_counter()
    run()
    wall_raw_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    cpu1 = os.times()
    ref_after = reference_s()

    outcomes = check()
    record = {
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_raw_s": setup_raw_s,
        "reference_s": (ref_before + ref_after) / 2,
        "cpu_user_s": cpu1.user - cpu0.user,
        "cpu_sys_s": cpu1.system - cpu0.system,
        "checks_attempted": len(outcomes),
        "checks_failed": outcomes.count(False),
        "affinity": affinity,
        "wrapped": hasattr(Proc.sleep, "__wrapped__"),  # true in traced children only
        "clusters": tally["clusters"],
        "exact": {k: tally[k] for k in EXACT_COUNTS},
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["ops"] = tracer.by_op()
        spans = RESULTS / f"spans-{args['workload']}.json"
        spans.write_text(json.dumps(tracer.dump_spans()))
        record["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
