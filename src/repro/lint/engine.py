"""The lint driver: parse, model, run every pass, apply suppressions.

``lint_source``/``lint_file`` return findings for one module;
``lint_paths`` walks files and directories and aggregates a
:class:`~repro.lint.findings.LintReport`. ``syntactic_findings`` is the
first tier alone, over an already built model: what ``check_stream``
dedupes against.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable, Sequence

from repro.lint.checks_collective import check_collectives
from repro.lint.checks_epoch import check_epochs
from repro.lint.checks_runtime import check_am_handlers, check_dual_runtime
from repro.lint.checks_sync import (
    check_event_pairing,
    check_finish_usage,
    check_sync_discipline,
)
from repro.lint.findings import Finding, LintReport
from repro.lint.model import ModuleModel, build_model
from repro.lint.stream import check_stream
from repro.lint.suppress import is_suppressed, suppressions

#: Passes that run per function.
_FUNCTION_PASSES = (
    check_collectives,
    check_sync_discipline,
    check_dual_runtime,
    check_am_handlers,
    check_epochs,
)

#: Passes that run once per module.
_MODULE_PASSES = (
    check_event_pairing,
    check_finish_usage,
)


def syntactic_findings(model: ModuleModel) -> list[Finding]:
    """The per-function and per-module syntactic passes (CAF001-CAF010)."""
    findings: list[Finding] = []
    for fn in model.functions:
        for fn_pass in _FUNCTION_PASSES:
            findings.extend(fn_pass(fn, model))
    for mod_pass in _MODULE_PASSES:
        findings.extend(mod_pass(model))
    return findings


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text. Parse failures yield CAF000."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="CAF000",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                func="",
                message=f"could not parse: {exc.msg}",
            )
        ]

    model = build_model(tree, path)
    findings = syntactic_findings(model)
    try:
        findings.extend(check_stream(model, findings))
    except RecursionError:  # pathological nesting: syntactic tier stands
        pass

    table = suppressions(source)
    for finding in findings:
        finding.suppressed = is_suppressed(finding.rule, finding.line, table)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into .py files, skipping caches."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def lint_paths(
    paths: Sequence[str],
    *,
    select: Iterable[str] | None = None,
) -> LintReport:
    """Lint every .py file under ``paths``; optionally restrict to rules
    in ``select`` (IDs like ``CAF006``)."""
    wanted = {r.upper() for r in select} if select else None
    report = LintReport()
    for path in iter_python_files(paths):
        report.nfiles += 1
        for finding in lint_file(path):
            if wanted is not None and finding.rule not in wanted:
                continue
            report.add(finding)
    return report
