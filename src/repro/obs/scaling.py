"""Automated scaling-law fitting across RunReports at multiple P.

The paper's headline evidence is a *scaling* story: ``MPI_WIN_FLUSH_ALL``
cost grows linearly in P (Fig. 4) while GASNet's AM-based ``event_notify``
stays O(1). This module turns the obs layer from a reporter into a
detector: feed it RunReports of the same app/backend at several rank
counts and it fits every op kind's per-call virtual cost against the
complexity lattice the symbolic stream tier uses
(:mod:`repro.lint.stream.sym`: const / log / linear / poly), emits a
versioned ScalingReport artifact naming each op's fitted order with
residuals, flags regressions against a declared-expectation table, and
cross-checks the fitted orders against the static cost model
(:func:`repro.lint.stream.estimate.static_op_seconds`) — the dynamic half of the
CAF011 flush-all-in-hot-loop analysis, so static and dynamic views
validate each other.

CLI::

    python -m repro.obs scaling ra-4.json ra-8.json ra-16.json \
        --out scaling.json --fail

ROADMAP item 8(i) (the scalable-RMA what-if pack) consumes this harness: a
tree-structured flush-all or put-with-notification variant is proven by
its fitted order dropping from ``linear`` to ``log``/``const``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.lint.stream.sym import (
    ORDER_CONST,
    ORDER_LINEAR,
    ORDER_LOG,
    ORDER_POLY,
    order_text,
)
from repro.obs.artifact import Document, SchemaError, checker, require
from repro.obs.report import RunReport
from repro.util.tables import format_table

SCHEMA_NAME = "repro.obs/scaling-report"
SCHEMA_VERSION = 1

#: Order-lattice constant -> artifact name (and back).
ORDER_NAMES: dict[int, str] = {
    ORDER_CONST: "const",
    ORDER_LOG: "log",
    ORDER_LINEAR: "linear",
    ORDER_POLY: "poly",
}
NAME_ORDERS: dict[str, int] = {v: k for k, v in ORDER_NAMES.items()}

#: Default NRMSE acceptance tolerance for a candidate model.
DEFAULT_TOL = 0.05

#: Candidate models, lowest complexity first: ``y = a + b * f(P)``.
_MODELS: list[tuple[str, int, Callable[[np.ndarray], np.ndarray]]] = [
    ("const", ORDER_CONST, lambda p: np.ones_like(p)),
    ("log", ORDER_LOG, lambda p: np.log2(p)),
    ("linear", ORDER_LINEAR, lambda p: p),
    ("poly", ORDER_POLY, lambda p: p * p),
]

#: Declared expectations per backend: the regression tripwires CI arms.
#: ``mpi.flush_all`` linear-in-P is the paper's Fig. 4 cliff; the MPI
#: lowering of ``event_notify`` rides it, so notify inherits the growth.
#: GASNet's AM-based notify must stay O(1) — that asymmetry *is* the
#: paper's argument.
DEFAULT_EXPECTATIONS: dict[str, dict[str, str]] = {
    "mpi": {
        "mpi.flush_all": "linear",
        # The idle walk (no epoch activity) is the flat cost that keeps the
        # paper's NOTIFY *microbenchmark* constant in P.
        "mpi.flush_all.idle": "const",
        "caf.event_notify": "linear",
    },
    "gasnet": {
        "caf.event_notify": "const",
        "gasnet.am": "const",
    },
}

#: Kinds whose static per-call *origin* cost model is meaningful to
#: cross-check against the measured per-call cost. Blocking-dominated
#: kinds (event_wait, sync_all, collectives, recv) measure waiting time,
#: which no per-op closed form predicts — comparing those would only
#: manufacture mismatches.
CROSSCHECK_KINDS: frozenset[str] = frozenset(
    {
        "mpi.flush_all",
        "mpi.flush_all.idle",
        "mpi.flush",
        "mpi.rput",
        "mpi.rget",
        "caf.event_notify",
        "gasnet.am",
        "gasnet.put",
        "gasnet.get",
    }
)

#: Rank counts the static model is probed at for order classification.
_STATIC_PROBE_RANKS: tuple[int, ...] = (4, 8, 16, 32, 64)


# -- order fitting ----------------------------------------------------------


@dataclass
class OrderFit:
    """One op kind's fitted complexity: ``cost(P) ~= a + b * f(P)``."""

    name: str  # "const" | "log" | "linear" | "poly"
    order: int  # the sym.py lattice constant
    coeffs: tuple[float, float]  # (a, b); const fits carry b == 0
    nrmse: float  # residual RMS / mean |y| of the chosen model
    candidates: dict[str, float]  # NRMSE of every candidate model

    @property
    def text(self) -> str:
        return order_text(self.order)


def fit_order(
    ranks: Sequence[float], ys: Sequence[float], *, tol: float = DEFAULT_TOL
) -> OrderFit:
    """Classify ``ys`` (per-call cost at each rank count) on the lattice.

    Least-squares fits ``y = a + b * f(P)`` for f in {1, log2 P, P, P^2}
    and picks the *lowest-complexity* model whose normalized RMS residual
    is within ``tol`` (falling back to the best-fitting model when none
    qualifies). Growth models require a positive slope — a cost that
    shrinks with P is not "linear in P" no matter how well a negative
    slope fits.
    """
    p = np.asarray(ranks, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if p.size != y.size:
        raise ValueError(f"{p.size} rank count(s) but {y.size} value(s)")
    if np.unique(p).size < 3:
        raise ValueError(
            f"order fitting needs >= 3 distinct rank counts, got {np.unique(p).tolist()}"
        )
    scale = float(np.mean(np.abs(y)))
    if scale == 0.0:
        return OrderFit(
            "const", ORDER_CONST, (0.0, 0.0), 0.0,
            {name: 0.0 for name, _o, _f in _MODELS},
        )
    fits: dict[str, tuple[int, tuple[float, float], float]] = {}
    for name, order, f in _MODELS:
        if name == "const":
            a, b = float(np.mean(y)), 0.0
            resid = y - a
        else:
            design = np.column_stack([np.ones_like(p), f(p)])
            coef, *_rest = np.linalg.lstsq(design, y, rcond=None)
            a, b = float(coef[0]), float(coef[1])
            resid = y - design @ coef
        nrmse = float(np.sqrt(np.mean(resid * resid))) / scale
        fits[name] = (order, (a, b), nrmse)
    candidates = {name: fit[2] for name, fit in fits.items()}

    def acceptable(name: str) -> bool:
        return name == "const" or fits[name][1][1] > 0.0

    for name, _order, _f in _MODELS:  # lowest complexity first
        order, coeffs, nrmse = fits[name]
        if acceptable(name) and nrmse <= tol:
            return OrderFit(name, order, coeffs, nrmse, candidates)
    best = min(
        (name for name, _o, _f in _MODELS if acceptable(name)),
        key=lambda name: fits[name][2],
    )
    order, coeffs, nrmse = fits[best]
    return OrderFit(best, order, coeffs, nrmse, candidates)


# -- static cross-check -----------------------------------------------------


def static_order(
    kind: str,
    backend: str | None,
    spec: Any,
    *,
    nbytes: float = 8.0,
    tol: float = DEFAULT_TOL,
) -> int | None:
    """The static cost model's predicted order for ``kind``, or ``None``.

    Probes :func:`~repro.lint.stream.estimate.static_op_seconds` at several
    rank counts and classifies the curve with the same fitter — so the symbolic
    stream tier's prediction (CAF011's O(trip x P) analysis rides the same
    model) and the measured fit land on one lattice. Kinds outside
    :data:`CROSSCHECK_KINDS` return ``None`` (no meaningful per-call
    model); so does ``caf.event_notify`` on the MPI backend, whose O(P)
    lives in the ``mpi.flush_all`` lowering measured separately in the
    same report.
    """
    if kind not in CROSSCHECK_KINDS:
        return None
    if backend == "mpi" and kind == "caf.event_notify":
        return None
    from repro.lint.stream.estimate import static_op_seconds

    nb = np.array([nbytes], dtype=np.float64)
    ys = [
        float(static_op_seconds(kind, nb, spec, p)[0])
        for p in _STATIC_PROBE_RANKS
    ]
    return fit_order(_STATIC_PROBE_RANKS, ys, tol=tol).order


def _resolve_spec(name: str | None) -> Any:
    from repro.platforms import PLATFORMS
    from repro.sim.network import MachineSpec

    if name and name in PLATFORMS:
        return PLATFORMS[name]
    return MachineSpec(name=name or "generic")


# -- the ScalingReport artifact --------------------------------------------


@dataclass
class ScalingReport(Document):
    """Fitted per-op scaling across a rank sweep (canonical dict form)."""

    @staticmethod
    def validate(data: Any) -> None:
        validate_scaling_report(data)

    @property
    def kinds(self) -> dict[str, Any]:
        return self.data["kinds"]

    def kind(self, kind: str) -> dict[str, Any]:
        return self.data["kinds"][kind]

    @property
    def expectation_mismatches(self) -> list[dict[str, Any]]:
        return [e for e in self.data["expectations"] if not e["ok"]]

    @property
    def crosscheck_mismatches(self) -> list[str]:
        return sorted(
            kind
            for kind, entry in self.data["kinds"].items()
            if entry["static_agrees"] is False
        )

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        meta = self.data["meta"]
        out = [
            f"== scaling report: {meta.get('app') or 'run'} on "
            f"{meta.get('backend', '?')} (spec={meta.get('spec', '?')}), "
            f"P in {meta['nranks']} =="
        ]
        rows = []
        for kind in sorted(self.data["kinds"]):
            entry = self.data["kinds"][kind]
            static = entry["static_order"]
            agrees = entry["static_agrees"]
            rows.append(
                [
                    kind,
                    entry["order"],
                    order_text(NAME_ORDERS[entry["order"]]),
                    f"{entry['nrmse']:.3f}",
                    static if static is not None else "-",
                    {True: "yes", False: "NO", None: "-"}[agrees],
                ]
            )
        out.append(
            format_table(
                ["op kind", "fitted", "O()", "nrmse", "static", "agree"],
                rows,
                title="per-call cost vs P (virtual seconds)",
            )
        )
        if self.data["expectations"]:
            rows = [
                [
                    e["kind"],
                    e["expected"],
                    e["fitted"],
                    "ok" if e["ok"] else "MISMATCH",
                ]
                for e in self.data["expectations"]
            ]
            out.append(
                format_table(
                    ["op kind", "expected", "fitted", "verdict"],
                    rows,
                    title="declared expectations",
                )
            )
        summary = self.data["summary"]
        out.append(
            f"{summary['kinds']} kind(s) fitted; "
            f"{summary['expectation_mismatches']} expectation mismatch(es), "
            f"{summary['crosscheck_mismatches']} static-crosscheck mismatch(es)"
        )
        for warning in self.data.get("warnings", []):
            out.append(f"warning: {warning}")
        return "\n".join(out)


def validate_scaling_report(data: Any) -> None:
    """Structural schema check; raises :class:`SchemaError` on violation."""
    need = checker("scaling report")
    need(isinstance(data, dict), "not a JSON object")
    need(data.get("schema") == SCHEMA_NAME, f"schema != {SCHEMA_NAME!r}")
    need(data.get("version") == SCHEMA_VERSION, f"version != {SCHEMA_VERSION}")
    require(data, "scaling report", {
        "meta.nranks": list, "meta.tol": (int, float), "kinds": dict, "expectations": list,
        "summary.kinds": int, "summary.expectation_mismatches": int,
        "summary.crosscheck_mismatches": int,
    })
    meta = data["meta"]
    need(len(meta["nranks"]) >= 3, "meta.nranks (need >= 3 rank counts)")
    for kind, entry in data["kinds"].items():
        at = f"kinds[{kind!r}]"
        fields = {"nrmse": (int, float), "points": list, "coeffs": list, "candidates": dict}
        require(entry, "scaling report", fields, at=at)
        need(entry.get("order") in ORDER_NAMES.values(), f"{at}.order")
        need(len(entry["points"]) == len(meta["nranks"]), f"{at}.points")
        need(len(entry["coeffs"]) == 2, f"{at}.coeffs")
        need(entry.get("static_order") in (None, *ORDER_NAMES.values()), f"{at}.static_order")
        need(entry.get("static_agrees") in (True, False, None), f"{at}.static_agrees")
    for e in data["expectations"]:
        require(e, "scaling report", {"kind": str, "ok": bool}, at="expectations[]")
        need(e.get("expected") in ORDER_NAMES.values(), "expectations[].expected")


def parse_expectations(pairs: Sequence[str]) -> dict[str, str]:
    """Parse ``KIND=ORDER`` CLI pairs into an expectations mapping."""
    out: dict[str, str] = {}
    for pair in pairs:
        kind, sep, name = pair.partition("=")
        if not sep or not kind or name not in NAME_ORDERS:
            raise SchemaError(
                f"bad expectation {pair!r}: want KIND=ORDER with ORDER in "
                f"{sorted(NAME_ORDERS)}"
            )
        out[kind] = name
    return out


def fit_scaling(
    reports: Sequence[RunReport],
    *,
    tol: float = DEFAULT_TOL,
    min_calls: int = 1,
    expectations: dict[str, str] | None = None,
    use_default_expectations: bool = True,
    crosscheck: bool = True,
) -> ScalingReport:
    """Fit every shared op kind's per-call cost across a rank sweep.

    ``reports`` must cover >= 3 distinct rank counts of one backend (one
    app, ideally — a mixed-app sweep gets a warning, not an error, since
    weak-scaling families legitimately vary the program name). Only kinds
    with at least ``min_calls`` calls in *every* report are fitted — a
    kind that vanishes at some P has a pattern change, not a scaling
    curve. ``expectations`` (kind -> order name) extends/overrides the
    backend's :data:`DEFAULT_EXPECTATIONS`; ``crosscheck=False`` skips
    the static-model comparison (all ``static_order`` fields null). A
    static comparison only renders a verdict when the empirical fit is
    confident (nrmse within ``tol``); otherwise ``static_agrees`` stays
    null and a warning records the inconclusive kind.
    """
    if len(reports) < 3:
        raise SchemaError(
            f"scaling fit needs >= 3 reports (one per rank count), got {len(reports)}"
        )
    reports = sorted(reports, key=lambda r: r.meta["nranks"])
    ranks = [r.meta["nranks"] for r in reports]
    if len(set(ranks)) != len(ranks):
        raise SchemaError(f"duplicate rank counts in sweep: {ranks}")
    backends = {r.meta.get("backend") for r in reports}
    if len(backends) != 1:
        raise SchemaError(
            f"scaling fit needs one backend, got {sorted(map(str, backends))}"
        )
    backend = backends.pop()
    warnings: list[str] = []
    apps = {r.meta.get("app") or "" for r in reports}
    if len(apps) != 1:
        warnings.append(f"mixed apps in sweep: {sorted(apps)}")
    specs = {r.meta.get("spec") or "" for r in reports}
    if len(specs) != 1:
        warnings.append(f"mixed machine specs in sweep: {sorted(specs)}")
    spec = _resolve_spec(reports[0].meta.get("spec"))

    shared = set(reports[0].ops)
    for r in reports[1:]:
        shared &= set(r.ops)
    kinds: dict[str, Any] = {}
    for kind in sorted(shared):
        stats = [r.op(kind) for r in reports]
        if any(s["calls"] < min_calls for s in stats):
            continue
        calls = [s["calls"] for s in stats]
        ys = [s["time"] / s["calls"] for s in stats]
        fit = fit_order(ranks, ys, tol=tol)
        static: int | None = None
        if crosscheck:
            mean_nb = float(
                np.mean([s["bytes"] / s["calls"] for s in stats])
            )
            static = static_order(
                kind, backend, spec, nbytes=mean_nb or 8.0, tol=tol
            )
        agrees: bool | None = None
        if static is not None:
            if fit.nrmse <= tol:
                agrees = static == fit.order
            else:
                # No candidate fit the measurements within tolerance — the
                # curve is dominated by data-dependent waiting or noise, so
                # a verdict either way would be manufactured.
                warnings.append(
                    f"crosscheck for {kind!r} inconclusive: best fit "
                    f"({fit.name}) nrmse {fit.nrmse:.3f} > tol {tol:g}"
                )
        kinds[kind] = {
            "points": [[p, y] for p, y in zip(ranks, ys)],
            "calls": calls,
            "order": fit.name,
            "order_text": fit.text,
            "coeffs": [fit.coeffs[0], fit.coeffs[1]],
            "nrmse": fit.nrmse,
            "candidates": fit.candidates,
            "static_order": ORDER_NAMES[static] if static is not None else None,
            "static_agrees": agrees,
        }

    expected = dict(DEFAULT_EXPECTATIONS.get(backend or "", {})) if (
        use_default_expectations
    ) else {}
    expected.update(expectations or {})
    expectation_rows = []
    for kind in sorted(expected):
        if kind not in kinds:
            warnings.append(
                f"expectation for {kind!r} skipped: kind absent from the sweep"
            )
            continue
        fitted = kinds[kind]["order"]
        expectation_rows.append(
            {
                "kind": kind,
                "expected": expected[kind],
                "fitted": fitted,
                "ok": fitted == expected[kind],
            }
        )
    data: dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "meta": {
            "backend": backend,
            "app": sorted(apps)[0] if len(apps) == 1 else None,
            "spec": sorted(specs)[0] if len(specs) == 1 else None,
            "nranks": ranks,
            "labels": [r.meta.get("label") for r in reports],
            "tol": tol,
            "min_calls": min_calls,
            "crosscheck": crosscheck,
        },
        "kinds": kinds,
        "expectations": expectation_rows,
        "summary": {
            "kinds": len(kinds),
            "expectation_mismatches": sum(
                1 for e in expectation_rows if not e["ok"]
            ),
            "crosscheck_mismatches": sum(
                1 for e in kinds.values() if e["static_agrees"] is False
            ),
        },
        "warnings": warnings,
    }
    validate_scaling_report(data)
    return ScalingReport(data)
