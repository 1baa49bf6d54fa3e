"""Where the benchmark's files are, and the self-check that keeps
``BENCHMARK.json``, ``spec.json`` and the code on the same names."""

from __future__ import annotations

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Run outputs (``latest.json``, span dumps, scratch files); git-ignored.
RESULTS = BENCH / "results"

EXACT_COUNTS = (
    "sim.engine.events",
    "sim.engine.stale_wakes_dropped",
    "sim.network.messages",
    "sim.network.bytes",
    "sim.virtual_s",
    "sim.order_digest48",
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_spec() -> dict:
    """Workload sizes and what each per-layer metric should move."""
    return json.loads((BENCH / "spec.json").read_text())


def names(entries: list[dict]) -> list[str]:
    return [e["name"] for e in entries]


def units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def mismatches(contract: dict, spec: dict, results: dict) -> list[str]:
    """Every way the names in a run's results differ from the two files.

    A workload that produced nothing (every child crashed) is reported
    here too: its metric set is empty, which no file allows."""
    problems = []

    def diff(what, got, want):
        got, want = set(got), set(want)
        if got != want:
            problems.append(
                f"{what}: missing {sorted(want - got)}, unexpected {sorted(got - want)}"
            )

    diff("workloads in spec.json vs BENCHMARK.json", spec["workloads"], names(contract["workloads"]))
    diff("per_layer in spec.json vs BENCHMARK.json", spec["per_layer"], names(contract["per_layer"]))
    for name, rec in results["workloads"].items():
        diff(f"{name}: end_to_end produced vs BENCHMARK.json",
             rec["end_to_end"], names(contract["end_to_end"]))
        if results["traced"]:
            diff(f"{name}: per_layer produced vs BENCHMARK.json",
                 rec.get("per_layer", ()), names(contract["per_layer"]))
    return problems
