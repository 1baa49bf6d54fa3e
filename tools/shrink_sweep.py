"""Per-fraction shrink-recovery table for one resilient app.

Crashes one image at each given fraction of the app's fault-free makespan,
runs it with an in-run shrink budget and prints, per backend and fraction,
whether the run recovered and verified, and if not, the error it ended in
(a deadlock report names where each survivor is parked). Exits 1 when any
row did not recover, so a lost row fails the caller. The sweep is
``repro.resilience.chaos.crash_sweep``; the app, its keywords and its
verifier come from ``repro.resilience.chaos.APPS``::

    PYTHONPATH=src python tools/shrink_sweep.py --app ra --nranks 4 --victim 1
    PYTHONPATH=src python tools/shrink_sweep.py --app ra --nranks 8 --victim 3 \\
        --fracs 0.3,0.55,0.7,0.85,0.95
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.resilience.chaos import APPS, crash_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", default="ra", choices=sorted(APPS))
    ap.add_argument("--nranks", type=int, default=4)
    ap.add_argument("--victim", type=int, default=1)
    ap.add_argument("--fracs", default=None,
                    help="comma-separated fractions (default: 9 from 0.3 to 0.95)")
    ap.add_argument("--backends", default="mpi,gasnet")
    ap.add_argument("--kw", type=json.loads, default=None,
                    help="JSON object replacing the app's keywords")
    args = ap.parse_args()
    fracs = ([float(f) for f in args.fracs.split(",")] if args.fracs
             else np.linspace(0.3, 0.95, 9).round(2).tolist())
    lost = 0
    for backend in args.backends.split(","):
        rows = crash_sweep(args.app, args.nranks, args.victim, fracs, backend, args.kw)
        ok = sum(outcome == "recovered" for _, outcome, _, _ in rows)
        lost += len(rows) - ok
        print(f"{args.app} P={args.nranks} victim={args.victim} {backend}: "
              f"{ok}/{len(rows)} recovered")
        for frac, outcome, detail, _ in rows:
            print(f"  {frac:.2f} {outcome:<22} {detail}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
