"""CLI: run any registered app or experiment under the sanitizer.

Usage::

    python -m repro.sanitizer randomaccess --procs 8 --backend gasnet
    python -m repro.sanitizer cgpop --procs 4 --mode pull
    python -m repro.sanitizer fig03 --scale quick

The positional target is an app name — everything after it is handed to
``python -m repro.apps`` unchanged, so the two CLIs share one set of flags
and defaults — or an experiment id from the experiment registry
(``--scale`` picks its size). Exits 1 when any run reports a violation, 0
when all runs are clean.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.__main__ import APPS, main as apps_main
from repro.experiments.registry import EXPERIMENTS
from repro.obs.capture import capture


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.sanitizer")
    parser.add_argument(
        "target",
        help=f"app ({', '.join(APPS)}; further arguments as for python -m "
        f"repro.apps) or experiment id ({', '.join(sorted(EXPERIMENTS))})",
    )
    parser.add_argument(
        "--scale", choices=["quick", "default"], default="quick",
        help="experiment scale",
    )
    args, app_args = parser.parse_known_args(argv)
    is_app = args.target in APPS
    if not is_app and args.target not in EXPERIMENTS:
        parser.error(
            f"unknown target {args.target!r}; expected an app "
            f"({', '.join(APPS)}) or experiment id"
        )
    if not is_app and app_args:
        parser.error(f"unrecognized arguments: {' '.join(app_args)}")

    # Apps and experiments build their own clusters, so force the checker
    # on for every cluster constructed while they run.
    with capture(sanitize=True) as session:
        if is_app:
            print(f"== sanitizing {args.target} ==")
            apps_main([args.target, *app_args])
        else:
            print(f"== sanitizing experiment {args.target} (scale={args.scale}) ==")
            EXPERIMENTS[args.target].load()(args.scale)

    reports = session.sanitizer_reports
    bad = False
    for i, report in enumerate(reports):
        label = f"run {i + 1}/{len(reports)}" if len(reports) > 1 else "run"
        print(f"-- {label}: {report.to_text()}")
        bad = bad or not report.clean
    if not reports:
        print("sanitizer: no sanitized runs executed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
