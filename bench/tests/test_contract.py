"""``BENCHMARK.json`` against the builder contract, and the harness end to
end at smoke size."""

import json
import re
import shutil
import subprocess
import sys
import time

from bench.spec import BENCH, RESULTS, ROOT, load_contract, load_spec, names
from bench.trace import LAYERS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    c = load_contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert c["paths"] == ["bench"]
    assert len(c["command"]) <= 32 and all(len(s) <= 200 for s in c["command"])
    assert isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60
    assert 2 <= len(c["workloads"]) <= 8
    assert 1 <= len(c["end_to_end"]) <= 16 and 1 <= len(c["per_layer"]) <= 128
    for w in c["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in c["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in c["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in c["end_to_end"] + c["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    used = names(c["workloads"]) + names(c["end_to_end"]) + names(c["per_layer"])
    assert all(NAME.match(n) for n in used) and len(set(used)) == len(used)
    setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in c["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    # 4 + 22 runs per workload, each about run_seconds, inside the cap.
    assert (4 + 22 * len(c["workloads"])) * (c["run_seconds"] + 6) <= 3420


def test_spec_json_names_the_same_workloads_and_metrics():
    c, s = load_contract(), load_spec()
    assert set(s["workloads"]) == set(names(c["workloads"]))
    assert set(s["per_layer"]) == set(names(c["per_layer"]))
    for wl in s["workloads"].values():
        assert wl["smoke"].get("nranks", 16) <= 16


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_suite_is_fast_and_schema_valid():
    t0 = time.monotonic()
    proc = _bench("run", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 30
    c = load_contract()
    latest = json.loads((RESULTS / "latest.json").read_text())
    assert list(latest["workloads"]) == names(c["workloads"])
    assert {"nproc", "loadavg_1m", "noisy", "python", "affinity"} <= set(latest["env"])
    for rec in latest["workloads"].values():
        assert set(rec["end_to_end"]) == set(names(c["end_to_end"]))
        assert set(rec["per_layer"]) == set(names(c["per_layer"]))
        assert rec["checks_failed"] == 0 and rec["checks_attempted"] > 0
        for stat in rec["end_to_end"].values():
            assert stat["n"] >= 1 and stat["min"] <= stat["median"] <= stat["max"]
        # The eleven layers account for the traced wall; "other" is the rest.
        layers = sum(rec["per_layer"][f"{layer}.self_s"] for layer in LAYERS)
        assert layers >= 0.95 * rec["per_layer"]["host.traced_wall_s"]
        # Wrappers exist in the traced child only.
        assert [r["wrapped"] for r in rec["reps"]] == [False] * len(rec["reps"])


def test_driver_line_has_exactly_the_contract_keys():
    c = load_contract()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("run", "--workload", "bulk", "--seed", "3", "--seconds", "1",
                      "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == set(names(c[section]))
        units = {m["name"]: m["unit"] for m in c[section]}
        for name, m in line["metrics"].items():
            assert set(m) == {"value", "unit"} and m["unit"] == units[name]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("run", "--workload", "bulk", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
