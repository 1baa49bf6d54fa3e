"""``python -m bench run``: time the workloads, one fresh child at a time.

The parent never imports ``repro``. It launches ``bench.child`` once per
repetition until ``--seconds`` is used up, takes medians, checks every name
against ``BENCHMARK.json`` and writes ``bench/results/latest.json``. With
``--trace 1`` it first runs one traced child and the layer probes, then
spends what is left of the budget on untraced repetitions, which give the
traced run its baseline.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from bench import spec as specmod
from bench.spec import EXACT_COUNTS, RESULTS, ROOT

#: A child is killed at this multiple of its expected time.
KILL_FACTOR = 4
TRACED_SLOWDOWN = 3  # expected traced wall over untraced, for the kill timer
PROBES_EXPECTED_S = 15


def launch(module: str, payload: dict, timeout: float) -> dict | None:
    """Run ``python -m <module> '<payload>'``; its last stdout line, parsed,
    or None when it crashed, printed no record or had to be killed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", module, json.dumps(payload)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: {module} {payload} killed after {timeout:.0f}s", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {module} {payload} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"bench: {module} {payload} printed no record", file=sys.stderr)
        return None


def host_state() -> dict:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_1m": load,
        # Half the cores busy before we start: timings are not trustworthy.
        "noisy": load > nproc / 2,
    }


def measure(name: str, wl: dict, contract: dict, *, seed: int, began: float, seconds: float,
            probes: dict | None, smoke: bool, nominal_ref: float) -> dict:
    """One workload's record: every repetition plus the medians. With
    ``probes`` (the layer probes' values, repeated on every workload) it
    starts with one traced repetition. The budget of ``seconds`` runs from
    ``began`` (``time.monotonic()``)."""
    expected = wl["expected_s"]

    def child(is_traced: bool) -> dict | None:
        payload = {"workload": name, "seed": seed, "traced": is_traced,
                   "smoke": smoke, "spawned": time.time()}
        factor = TRACED_SLOWDOWN if is_traced else 1
        return launch("bench.child", payload, KILL_FACTOR * expected * factor)

    record: dict = {"checks_attempted": 0, "checks_failed": 0, "crashed": 0}

    def count(rep: dict | None) -> None:
        if rep is None:  # crashed or killed: all its checks count as failed
            record["crashed"] += 1
            record["checks_attempted"] += wl["checks"]
            record["checks_failed"] += wl["checks"]
        else:
            record["checks_attempted"] += rep["checks_attempted"]
            record["checks_failed"] += rep["checks_failed"]

    traced_rep = None
    if probes is not None:
        traced_rep = child(True)
        count(traced_rep)

    reps = []
    cost = expected  # seconds one more repetition is expected to take
    while not reps or time.monotonic() - began + cost <= seconds:
        t0 = time.monotonic()
        rep = child(False)
        cost = time.monotonic() - t0
        count(rep)
        if rep is not None:
            reps.append(rep)
        elif not reps:
            break  # a workload that cannot run once is not retried
        if smoke:
            break
    record["reps"] = reps
    for rep in reps + [traced_rep] * (traced_rep is not None):
        # Seconds at the host's nominal speed (bench/reference.py).
        scale = nominal_ref / rep["reference_s"]
        rep["wall_s"] = rep["wall_raw_s"] * scale
        rep["setup_s"] = rep["setup_raw_s"] * scale
        rep["events_per_s"] = rep["exact"]["sim.engine.events"] / rep["wall_s"]

    record["end_to_end"] = {
        metric: {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "unit": unit,
        }
        for metric, unit in specmod.units(contract["end_to_end"]).items()
        if (values := [r[metric] for r in reps])
    }
    if traced_rep is not None and reps:
        base = record["end_to_end"]["wall_s"]["median"]
        record["per_layer"] = {
            **traced_rep["layers"],
            **{k: traced_rep["exact"][k] for k in EXACT_COUNTS},
            "host.cpu_user_s": statistics.median(r["cpu_user_s"] for r in reps),
            "host.cpu_sys_s": statistics.median(r["cpu_sys_s"] for r in reps),
            "host.traced_wall_s": traced_rep["wall_raw_s"],
            "host.trace_overhead_ratio": traced_rep["wall_s"] / base,
            **probes,
        }
        record["ops"] = traced_rep["ops"]
        record["spans_file"] = traced_rep["spans_file"]
    return record


def print_table(results: dict, contract: dict) -> None:
    print(f"{'workload':<12}{'metric':<16}{'median':>14}{'min':>14}{'max':>14}{'n':>4}  unit")
    for name, rec in results["workloads"].items():
        for metric, s in rec["end_to_end"].items():
            print(f"{name:<12}{metric:<16}{s['median']:>14.4f}{s['min']:>14.4f}"
                  f"{s['max']:>14.4f}{s['n']:>4}  {s['unit']}")
        print(f"{name:<12}checks_failed   {rec['checks_failed']:>14} of {rec['checks_attempted']}")
    units = specmod.units(contract["per_layer"])
    for name, rec in results["workloads"].items():
        for metric, value in rec.get("per_layer", {}).items():
            shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
            print(f"{name:<12}{metric:<40}{shown:>18}  {units.get(metric, '?')}")


def main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no simulator to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 1
    contract, spec = specmod.load_contract(), specmod.load_spec()
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    selected = [args.workload] if args.workload else specmod.names(contract["workloads"])
    traced = bool(args.trace)

    results = {
        "schema": 1, "seed": seed, "seconds": seconds, "smoke": args.smoke,
        "traced": traced, "env": host_state(), "workloads": {},
    }
    began = time.monotonic()  # the probes come out of the first workload's budget
    probes = None
    if traced:
        probes = launch("bench.probes", {"smoke": args.smoke}, KILL_FACTOR * PROBES_EXPECTED_S)
        if probes is None:
            return 1
    for name in selected:
        results["workloads"][name] = measure(
            name, spec["workloads"][name], contract,
            seed=seed, began=began, seconds=seconds, probes=probes, smoke=args.smoke,
            nominal_ref=spec["reference_nominal_s"],
        )
        began = time.monotonic()
    results["env"]["loadavg_1m_end"] = os.getloadavg()[0]

    problems = specmod.mismatches(contract, spec, results)
    if problems:
        for p in problems:
            print(f"bench: name mismatch: {p}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(results, indent=1) + "\n")
    print_table(results, contract)

    attempted = sum(r["checks_attempted"] for r in results["workloads"].values())
    failed = sum(r["checks_failed"] for r in results["workloads"].values())
    if args.workload:
        # The line the driver reads: this workload, this mode's metrics.
        rec = results["workloads"][args.workload]
        if traced:
            units = specmod.units(contract["per_layer"])
            metrics = {k: {"value": v, "unit": units[k]} for k, v in rec["per_layer"].items()}
        else:
            metrics = {k: {"value": s["median"], "unit": s["unit"]}
                       for k, s in rec["end_to_end"].items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 3
