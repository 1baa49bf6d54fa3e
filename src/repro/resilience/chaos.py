"""Chaos campaign harness: seeded fault campaigns with invariant checks.

Each campaign case is derived deterministically from ``campaign seed +
case index``: an app (resilient RandomAccess or CGPOP), a backend, a
discipline (message faults only / crash + restart / crash + shrink), a set
of per-message fault rates, and optionally one scheduled image crash. The
case runs under the reliable transport with the engine watchdog armed and
``FaultPlan.record=True``, then a battery of invariants classifies it:

* **app verification** — the program's answer must match its serial
  reference (RandomAccess: exact table XOR state; CGPOP: true residual).
* **sanitizer-clean** — message-fault cases run under the happens-before
  sanitizer; any diagnostic is a violation.
* **watchdog-no-hang** — a deadline timeout (or deadlock) with *no* dead
  image explains nothing and is a violation.
* **determinism** — sampled verified cases are re-executed twice with the
  event-order digest armed; the digests must match bit-for-bit.

A failure *explained* by an injected crash (dead images present — e.g. a
shrink recovery caught mid-collective) is recorded but not a violation;
everything else is **unexplained** and, when the case recorded fault
events, is handed to the ddmin minimizer (:mod:`repro.resilience.minimize`)
to produce a smallest reproducing fault script. Every run emits one obs
RunReport into the campaign directory via :mod:`repro.obs.capture`.

Run it as ``python -m repro.resilience.chaos --runs 30 --out chaos-out``;
the exit code is nonzero iff any unexplained violation survived.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps.verification import verify_cgpop, verify_randomaccess
from repro.caf.program import run_caf
from repro.obs import capture as obs_capture
from repro.obs.artifact import write
from repro.resilience.apps import run_resilient_cgpop, run_resilient_randomaccess
from repro.resilience.minimize import minimize_plan
from repro.resilience.recovery import run_resilient
from repro.sim.faults import FaultPlan
from repro.util.errors import DeadlockError, ReproError, SimTimeoutError

#: ``campaign.json``, the ledger's artifact kind.
SCHEMA_NAME = "repro.resilience/chaos-ledger"
SCHEMA_VERSION = 1

# -- outcome taxonomy -----------------------------------------------------

VERIFIED = "verified"
FAILED_EXPLAINED = "failed-explained"  # injected crash made the run fail
VERIFY_VIOLATION = "verify-violation"
SANITIZER_VIOLATION = "sanitizer-violation"
HANG_VIOLATION = "hang-violation"
ERROR_VIOLATION = "error-violation"
DIGEST_VIOLATION = "digest-violation"

VIOLATIONS = frozenset(
    {
        VERIFY_VIOLATION,
        SANITIZER_VIOLATION,
        HANG_VIOLATION,
        ERROR_VIOLATION,
        DIGEST_VIOLATION,
    }
)


# -- app registry ---------------------------------------------------------


def _verify_ra(cluster, kwargs: dict) -> bool:
    return verify_randomaccess(
        cluster.shared("ra-tables", dict), seed=kwargs.get("seed", 42),
        nranks=cluster.nranks, table_bits_per_image=kwargs["table_bits_per_image"],
        updates_per_image=kwargs["updates_per_image"], tolerated_error_fraction=0.0,
    ).passed


def _verify_cg(cluster, kwargs: dict) -> bool:
    return verify_cgpop(
        cluster.shared("cgpop-solution", dict),
        ny=kwargs["ny"], nx=kwargs["nx"], seed=kwargs.get("seed", 11),
    ).passed


@dataclass(frozen=True)
class AppSpec:
    name: str
    program: Callable
    kwargs: dict
    verify: Callable[[Any, dict], bool]
    checkpoint_every: int


APPS: dict[str, AppSpec] = {
    "ra": AppSpec(
        name="ra",
        program=run_resilient_randomaccess,
        kwargs=dict(table_bits_per_image=6, updates_per_image=256, batches=4),
        verify=_verify_ra,
        checkpoint_every=2,
    ),
    "cgpop": AppSpec(
        name="cgpop",
        program=run_resilient_cgpop,
        kwargs=dict(ny=32, nx=16, tol=1e-8),
        verify=_verify_cg,
        checkpoint_every=10,
    ),
}

MODES = ("faults", "restart", "shrink")

#: The in-run budget a shrink run gets (``run_caf(..., max_recoveries=)``).
SHRINK_BUDGET = 3


def fault_free_elapsed(app: str, nranks: int, backend: str, kwargs: dict | None = None) -> float:
    """Fault-free virtual makespan of ``app`` (``kwargs`` replaces its
    keywords): crash times are placed as fractions of it."""
    spec = APPS[app]
    kw = spec.kwargs if kwargs is None else kwargs
    return run_caf(spec.program, nranks, backend=backend, **kw).elapsed


def crash_sweep(
    app: str, nranks: int, victim: int, fracs, backend: str, kwargs: dict | None = None
) -> list[tuple]:
    """``(frac, outcome, detail, run)`` per shrink run with ``victim``
    crashing at ``frac`` of the fault-free makespan: ``outcome`` is
    ``recovered``, ``unverified`` or ``no-crash`` (the run ended before the
    crash) with the finished run, or an error's class name with its first
    line as ``detail`` and no run."""
    spec = APPS[app]
    kw = spec.kwargs if kwargs is None else kwargs
    elapsed = fault_free_elapsed(app, nranks, backend, kw)
    rows = []
    for frac in fracs:
        plan = FaultPlan(seed=3, crashes=[(victim, elapsed * frac)])
        try:
            run = run_caf(
                spec.program, nranks, backend=backend, faults=plan, deadline=10.0,
                checkpoint_every=spec.checkpoint_every, max_recoveries=SHRINK_BUDGET,
                **kw,
            )
        except Exception as exc:  # the table reports every ending
            rows.append((frac, type(exc).__name__, str(exc).splitlines()[0], None))
            continue
        if victim not in run.cluster.failed_ranks:
            outcome = "no-crash"
        else:
            outcome = "recovered" if spec.verify(run.cluster, kw) else "unverified"
        rows.append((frac, outcome, "", run))
    return rows


# -- campaign configuration ----------------------------------------------


@dataclass
class CampaignConfig:
    runs: int = 30
    seed: int = 20140216  # PPoPP'14, why not
    nranks: int = 4
    apps: tuple[str, ...] = ("ra", "cgpop")
    backends: tuple[str, ...] = ("mpi", "gasnet")
    modes: tuple[str, ...] = MODES
    deadline: float = 30.0
    out: pathlib.Path | None = None
    sanitize: bool = True
    #: Re-run every Nth verified case twice with the order digest armed
    #: (0 disables the determinism invariant).
    determinism_every: int = 10
    minimize: bool = True
    max_minimize_tests: int = 48
    verbose: bool = True


def case_from_seed(cfg: CampaignConfig, index: int) -> dict:
    """Deterministically derive case ``index`` of the campaign."""
    seed = cfg.seed + index
    rng = np.random.default_rng(seed)
    mode = cfg.modes[int(rng.integers(len(cfg.modes)))]
    case = {
        "index": index,
        "seed": seed,
        "app": cfg.apps[int(rng.integers(len(cfg.apps)))],
        "backend": cfg.backends[int(rng.integers(len(cfg.backends)))],
        "mode": mode,
        # At most one fault class per message; keep the sum well under 1.
        "drop_rate": float(rng.uniform(0.0, 0.06)),
        "corrupt_rate": float(rng.uniform(0.0, 0.04)),
        "dup_rate": float(rng.uniform(0.0, 0.04)),
        "delay_rate": float(rng.uniform(0.0, 0.06)),
        "victim": None,
        "crash_frac": None,
    }
    if mode != "faults":
        case["victim"] = int(rng.integers(1, cfg.nranks))
        case["crash_frac"] = float(rng.uniform(0.25, 0.95))
    return case


def _plan_for(case: dict, crash_time: float | None) -> FaultPlan:
    crashes = []
    if case["victim"] is not None and crash_time is not None:
        crashes = [(case["victim"], crash_time)]
    return FaultPlan(
        seed=case["seed"],
        drop_rate=case["drop_rate"],
        corrupt_rate=case["corrupt_rate"],
        dup_rate=case["dup_rate"],
        delay_rate=case["delay_rate"],
        crashes=crashes,
        record=True,
    )


class CampaignRunner:
    """Executes cases, applies invariants, accumulates the ledger."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self._baselines: dict[tuple[str, str], float] = {}

    # -- helpers ----------------------------------------------------------

    def crash_time(self, case: dict) -> float | None:
        """The case's fraction of (app, backend)'s fault-free makespan,
        measured once per campaign, so campaigns self-calibrate."""
        if case["victim"] is None:
            return None
        app, backend = key = (case["app"], case["backend"])
        if key not in self._baselines:
            self._baselines[key] = fault_free_elapsed(app, self.cfg.nranks, backend)
        return self._baselines[key] * case["crash_frac"]

    def _execute(self, case: dict, plan: FaultPlan, *, sanitize: bool):
        """One run of the case under ``plan``; returns the final cluster."""
        cfg = self.cfg
        spec = APPS[case["app"]]
        kw = dict(
            backend=case["backend"], faults=plan, reliable=True,
            deadline=cfg.deadline, sanitize=sanitize, **spec.kwargs,
        )
        if case["mode"] == "faults":
            return run_caf(spec.program, cfg.nranks, **kw).cluster, None
        kw["checkpoint_every"] = spec.checkpoint_every
        if case["mode"] == "shrink":
            run = run_caf(spec.program, cfg.nranks, max_recoveries=SHRINK_BUDGET, **kw)
            return run.cluster, None
        out = run_resilient(spec.program, cfg.nranks, **kw)
        return out.cluster, out

    def _classify_failure(self, case: dict, exc: ReproError) -> str:
        cluster = getattr(exc, "caf_cluster", None)
        failed = sorted(cluster.failed_ranks) if cluster is not None else []
        if case["victim"] is not None and failed:
            # The injected crash fired and its consequences (including a
            # recovery caught inside an unprotected collective window)
            # killed the run: explained, not a violation.
            return FAILED_EXPLAINED
        if isinstance(exc, (SimTimeoutError, DeadlockError)):
            return HANG_VIOLATION
        return ERROR_VIOLATION

    def _check_determinism(self, case: dict, plan_events_len: int) -> bool:
        """Replay the case twice with the order digest armed; True = match."""
        import os

        crash_time = self.crash_time(case)
        digests = []
        prev = os.environ.get("REPRO_SIM_DIGEST")
        os.environ["REPRO_SIM_DIGEST"] = "1"
        try:
            for _ in range(2):
                cluster, _ = self._execute(
                    case, _plan_for(case, crash_time), sanitize=False
                )
                digests.append(cluster.engine.order_digest())
        except ReproError:
            # The failure path is exercised elsewhere; determinism of a
            # failing run is checked by the failure being deterministic.
            return True
        finally:
            if prev is None:
                os.environ.pop("REPRO_SIM_DIGEST", None)
            else:
                os.environ["REPRO_SIM_DIGEST"] = prev
        return digests[0] is not None and digests[0] == digests[1]

    def _minimize(self, case: dict, outcome: str, crash_time: float | None,
                  events) -> dict | None:
        """Delta-debug an unexplained failing case to a minimal script."""
        spec = APPS[case["app"]]

        def reproduces(plan) -> bool:
            try:
                cluster, _ = self._execute(case, plan, sanitize=False)
            except ReproError as exc:
                return self._classify_failure(case, exc) == outcome
            if outcome == VERIFY_VIOLATION:
                return not spec.verify(cluster, spec.kwargs)
            return False

        crashes = [(case["victim"], crash_time)] if case["victim"] else []
        try:
            result = minimize_plan(
                events, reproduces, crashes=crashes,
                max_tests=self.cfg.max_minimize_tests,
            )
        except ValueError:
            return None  # scripted replay does not reproduce (timing-coupled)
        return result.to_dict()

    # -- one case ---------------------------------------------------------

    def run_case(self, case: dict) -> dict:
        cfg = self.cfg
        spec = APPS[case["app"]]
        crash_time = self.crash_time(case)
        plan = _plan_for(case, crash_time)
        sanitize = cfg.sanitize and case["mode"] == "faults"
        record = dict(case)
        record["crash_time"] = crash_time

        try:
            cluster, out = self._execute(case, plan, sanitize=sanitize)
        except ReproError as exc:
            record["error"] = type(exc).__name__
            record["message"] = str(exc)[:300]
            record["failed_images"] = sorted(
                getattr(getattr(exc, "caf_cluster", None), "failed_ranks", ())
            )
            record["outcome"] = self._classify_failure(case, exc)
        else:
            record["restarts"] = out.restarts if out is not None else 0
            record["failed_images"] = sorted(cluster.failed_ranks)
            if not spec.verify(cluster, spec.kwargs):
                record["outcome"] = VERIFY_VIOLATION
            elif (
                sanitize
                and cluster.sanitizer is not None
                and not cluster.sanitizer.report.clean
            ):
                record["outcome"] = SANITIZER_VIOLATION
                record["diagnostics"] = len(cluster.sanitizer.report.diagnostics)
            else:
                record["outcome"] = VERIFIED
                if (
                    cfg.determinism_every
                    and case["index"] % cfg.determinism_every == 0
                    and not self._check_determinism(case, len(plan.events))
                ):
                    record["outcome"] = DIGEST_VIOLATION

        record["fault_events"] = len(plan.events)
        if record["outcome"] in VIOLATIONS and cfg.minimize and plan.events:
            record["minimized"] = self._minimize(
                case, record["outcome"], crash_time, plan.events
            )
        return record

    # -- the campaign -----------------------------------------------------

    def run(self) -> dict:
        cfg = self.cfg
        records = []
        for i in range(cfg.runs):
            case = case_from_seed(cfg, i)
            if cfg.out is not None:
                case_dir = cfg.out / f"case-{i:04d}"
                with obs_capture.capture(case_dir):
                    record = self.run_case(case)
            else:
                record = self.run_case(case)
            records.append(record)
            if cfg.verbose:
                tag = f"[{record['outcome']}]"
                print(
                    f"case {i:04d} seed={record['seed']} {record['app']:>6}/"
                    f"{record['backend']:<6} {record['mode']:<7} {tag}",
                    file=sys.stderr,
                )
        counts: dict[str, int] = {}
        for r in records:
            counts[r["outcome"]] = counts.get(r["outcome"], 0) + 1
        unexplained = [r for r in records if r["outcome"] in VIOLATIONS]
        summary = {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "config": {
                "runs": cfg.runs,
                "seed": cfg.seed,
                "nranks": cfg.nranks,
                "apps": list(cfg.apps),
                "backends": list(cfg.backends),
                "modes": list(cfg.modes),
            },
            "counts": counts,
            "unexplained": len(unexplained),
            "records": records,
        }
        if cfg.out is not None:
            cfg.out.mkdir(parents=True, exist_ok=True)
            write(cfg.out / "campaign.json", summary)
        return summary


def run_campaign(cfg: CampaignConfig) -> dict:
    return CampaignRunner(cfg).run()


# -- CLI ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Seeded chaos campaign over the resilient apps.",
    )
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20140216)
    parser.add_argument("--nranks", type=int, default=4)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="campaign artifact directory (reports + ledger)")
    parser.add_argument("--apps", nargs="+", default=list(APPS),
                        choices=list(APPS))
    parser.add_argument("--backends", nargs="+", default=["mpi", "gasnet"],
                        choices=["mpi", "gasnet"])
    parser.add_argument("--modes", nargs="+", default=list(MODES),
                        choices=list(MODES))
    parser.add_argument("--deadline", type=float, default=30.0)
    parser.add_argument("--no-minimize", action="store_true")
    parser.add_argument("--no-sanitize", action="store_true")
    parser.add_argument("--determinism-every", type=int, default=10)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    cfg = CampaignConfig(
        runs=args.runs,
        seed=args.seed,
        nranks=args.nranks,
        apps=tuple(args.apps),
        backends=tuple(args.backends),
        modes=tuple(args.modes),
        deadline=args.deadline,
        out=args.out,
        sanitize=not args.no_sanitize,
        determinism_every=args.determinism_every,
        minimize=not args.no_minimize,
        verbose=not args.quiet,
    )
    summary = run_campaign(cfg)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(summary["counts"].items()))
    print(f"{cfg.runs} runs: {counts}")
    if summary["unexplained"]:
        print(f"UNEXPLAINED VIOLATIONS: {summary['unexplained']}", file=sys.stderr)
        for r in summary["records"]:
            if r["outcome"] in VIOLATIONS:
                print(f"  seed={r['seed']} {r['app']}/{r['backend']}/"
                      f"{r['mode']}: {r['outcome']}"
                      + (f" (minimized to "
                         f"{len(r['minimized']['minimal_events'])} events)"
                         if r.get("minimized") else ""),
                      file=sys.stderr)
        return 1
    print("no unexplained violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
