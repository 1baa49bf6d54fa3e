"""Every armed path imports what it needs, from a fresh interpreter.

A plain run loads the simulator only, so each observer, transport and CLI
imports its own layer where it is armed. An in-process test cannot see an
import that is missing there: another test may already have loaded the
module. Each case here runs its commands in new child processes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

RUN = (
    "from repro.apps.randomaccess import run_randomaccess\n"
    "from repro.caf.program import run_caf\n"
    "def ra(**kw):\n"
    "    return run_caf(run_randomaccess, 4, updates_per_image=64, batches=2, **kw)\n"
)

CASES = {
    "metrics": [
        RUN + "ra(metrics=True).report(app='ra').to_json('run.json')\n",
        ("-m", "repro.obs", "render", "run.json"),
    ],
    "sanitize": [
        RUN + "assert ra(sanitize=True).sanitizer.report.clean\n",
    ],
    "record_and_replay": [
        RUN
        + "from repro.ir.record import last_trace, recording\n"
        "from repro.ir.replay import replay\n"
        "with recording('ir'):\n"
        "    run = ra()\n"
        "assert replay(last_trace()).makespan == run.elapsed\n",
    ],
    "live": [
        RUN + "ra(live='live.jsonl')\n"
        "assert open('live.jsonl').read().count('\\n') >= 2\n",
    ],
    "faults_reliable": [
        RUN
        + "from repro.sim.faults import FaultPlan\n"
        "ra(faults=FaultPlan(seed=3, drop_rate=0.05), reliable=True)\n",
    ],
    "gasnet": [
        RUN + "ra(backend='gasnet')\n",
    ],
    "lint": [
        ("-m", "repro.lint", str(ROOT / "examples")),
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_armed_path_runs_in_a_fresh_interpreter(case, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in CASES[case]:
        argv = ("-c", command) if isinstance(command, str) else command
        done = subprocess.run(
            [sys.executable, *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, (case, argv, done.stderr)
