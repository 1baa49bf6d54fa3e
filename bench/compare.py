"""``python -m bench compare A.json B.json``: B judged against base A.

One row per workload and end-to-end metric, with both medians, the ratio
B/A and a verdict against the metric's bound in ``BENCHMARK.json``:

improved      every run of B is better than every run of A (three or more each)
regressed     B's median is worse than A's by more than the bound
unresolved    either set's min-max spread exceeds the bound, or B looks
              regressed but a set was taken on a noisy host
within bound  none of the above

Then every exact count that differs. Exits 1 on a regression or a higher
failed share, else 0.
"""

from __future__ import annotations

import json

from bench import spec as specmod
from bench.spec import EXACT_COUNTS


def verdict(a: dict, b: dict, *, lower_is_better: bool, bound: float, noisy: bool) -> str:
    sign = 1 if lower_is_better else -1
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    apart = (b["max"] < a["min"]) if lower_is_better else (b["min"] > a["max"])
    if apart and min(a["n"], b["n"]) >= 3:
        return "improved"
    if worse_by > bound:
        return "unresolved (noisy host)" if noisy else "regressed"
    if max((s["max"] - s["min"]) / s["median"] for s in (a, b)) > bound:
        return "unresolved"
    return "within bound"


def failed_share(results: dict) -> float:
    recs = results["workloads"].values()
    attempted = sum(r["checks_attempted"] for r in recs)
    return sum(r["checks_failed"] for r in recs) / attempted if attempted else 1.0


def main(args) -> int:
    contract = specmod.load_contract()
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    noisy = a["env"]["noisy"] or b["env"]["noisy"]
    bad = False
    print(f"{'workload':<12}{'metric':<14}{'A median':>14}{'B median':>14}{'B/A':>8}  verdict")
    for name in specmod.names(contract["workloads"]):
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if ra is None or rb is None:
            print(f"{name:<12}missing from {'A' if ra is None else 'B'}")
            continue
        for m in contract["end_to_end"]:
            sa, sb = ra["end_to_end"][m["name"]], rb["end_to_end"][m["name"]]
            v = verdict(sa, sb, lower_is_better=m["better"] == "lower",
                        bound=m["bound"], noisy=noisy)
            bad |= v == "regressed"
            print(f"{name:<12}{m['name']:<14}{sa['median']:>14.4f}{sb['median']:>14.4f}"
                  f"{sb['median'] / sa['median']:>8.3f}  {v} (bound {m['bound']:.0%}, "
                  f"n={sa['n']}/{sb['n']})")
        la, lb = ra.get("per_layer"), rb.get("per_layer")
        if la is None or lb is None:
            print(f"{name:<12}exact counts: not compared (needs --trace 1 in both)")
        elif a["seed"] != b["seed"] and name != "figs_quick":
            print(f"{name:<12}exact counts: not compared (seeds {a['seed']} and {b['seed']})")
        else:
            moved = [k for k in EXACT_COUNTS if la[k] != lb[k]]
            for k in moved:
                print(f"{name:<12}exact count moved: {k}: {la[k]!r} -> {lb[k]!r}")
            if not moved:
                print(f"{name:<12}exact counts: identical")
    fa_, fb_ = failed_share(a), failed_share(b)
    print(f"failed share: A {fa_:.4f}, B {fb_:.4f}")
    if noisy:
        print("a set was taken with load average above half the cores: "
              "no row is called regressed")
    return 1 if bad or fb_ > fa_ else 0
