"""``bench compare``: verdicts, exact counts, exit codes."""

import json
from types import SimpleNamespace

from bench.compare import main, verdict
from bench.spec import EXACT_COUNTS, load_contract, names


def _stat(median, lo=None, hi=None):
    return {"median": median, "min": lo or median, "max": hi or median, "n": 5, "unit": "s"}


def test_verdicts():
    kw = dict(lower_is_better=True, bound=0.10, noisy=False)
    assert verdict(_stat(10, 9.8, 10.2), _stat(10.5, 10.3, 10.7), **kw) == "within bound"
    assert verdict(_stat(10, 9.8, 10.2), _stat(11.5, 11.3, 11.7), **kw) == "regressed"
    assert verdict(_stat(10, 9.8, 10.2), _stat(9.0, 8.9, 9.7), **kw) == "improved"
    # Spread wider than the bound: no verdict either way...
    assert verdict(_stat(10, 9, 11), _stat(10.5, 9.5, 11.5), **kw) == "unresolved"
    # ...unless every run of B beats every run of A.
    assert verdict(_stat(10, 9, 11), _stat(8, 7, 8.9), **kw) == "improved"
    # A noisy set is never called regressed.
    noisy = dict(kw, noisy=True)
    assert verdict(_stat(10), _stat(12), **noisy) == "unresolved (noisy host)"
    # Higher-is-better metrics flip the direction.
    up = dict(lower_is_better=False, bound=0.10, noisy=False)
    assert verdict(_stat(100, 99, 101), _stat(80, 79, 81), **up) == "regressed"
    assert verdict(_stat(100, 99, 101), _stat(120, 119, 121), **up) == "improved"


def _results(wall=10.0, failed=0, events=1000, noisy=False):
    contract = load_contract()
    e2e = {m["name"]: _stat(wall if m["name"] == "wall_s" else 5.0)
           for m in contract["end_to_end"]}
    layer = {k: 1 for k in EXACT_COUNTS}
    layer["sim.engine.events"] = events
    rec = {"end_to_end": e2e, "per_layer": layer, "checks_attempted": 10,
           "checks_failed": failed}
    return {"seed": 11, "env": {"noisy": noisy},
            "workloads": {w: rec for w in names(contract["workloads"])}}


def _compare(tmp_path, a, b, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code = main(SimpleNamespace(a=str(pa), b=str(pb)))
    return code, capsys.readouterr().out


def test_same_results_pass_and_counts_are_identical(tmp_path, capsys):
    code, out = _compare(tmp_path, _results(), _results(), capsys)
    assert code == 0
    assert "regressed" not in out and out.count("exact counts: identical") == 4


def test_regression_exits_nonzero_and_moved_counts_are_listed(tmp_path, capsys):
    code, out = _compare(tmp_path, _results(), _results(wall=13.0, events=999), capsys)
    assert code == 1
    assert out.count("regressed") == 4
    assert out.count("exact count moved: sim.engine.events: 1000 -> 999") == 4


def test_noisy_set_is_not_called_regressed(tmp_path, capsys):
    code, out = _compare(tmp_path, _results(), _results(wall=13.0, noisy=True), capsys)
    assert code == 0
    assert out.count("  unresolved (noisy host)") == 4 and "  regressed" not in out


def test_higher_failed_share_exits_nonzero(tmp_path, capsys):
    code, _ = _compare(tmp_path, _results(), _results(failed=1), capsys)
    assert code == 1
