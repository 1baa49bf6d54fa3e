"""Calibration: replayed makespans and per-op totals match live runs exactly.

The whole point of the IR is that a recorded trace re-priced at the
recorded spec is indistinguishable from the live run — bit-for-bit, not
approximately. Every (app x machine config x backend) cell
below asserts exact float equality on the makespan and on every per-op
aggregate, plus a clean deep validation (which itself includes a
self-replay with per-transfer delivery-time checking).
"""

import pytest

from repro.ir import replay, validate_trace

PLATFORM_CONFIGS = ["laptop", "edison"]


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
@pytest.mark.parametrize("platform", PLATFORM_CONFIGS)
@pytest.mark.parametrize("app", ["ra", "fft", "cgpop"])
def test_replay_matches_live_bit_exactly(record, app, platform, backend):
    run, trace = record(app, backend, platform)

    result = replay(trace)  # default: the recorded spec

    assert result.makespan == run.elapsed  # exact, not approx
    assert result.warnings == []

    live = run.metrics.by_kind()
    assert set(result.op_totals) == set(live)
    for kind, agg in result.op_totals.items():
        stats = live[kind]
        assert agg["calls"] == stats.calls, kind
        assert agg["bytes"] == stats.nbytes, kind
        assert agg["time"] == stats.time, kind  # exact float equality

    # Per-rank totals match the live registry rank by rank.
    for rank, per in enumerate(result.per_rank):
        for kind, agg in per.items():
            stats = run.metrics.op(rank, kind)
            assert agg["calls"] == stats.calls
            assert agg["time"] == stats.time

    assert validate_trace(trace) == []


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
@pytest.mark.parametrize("app", ["async-coll", "nbc"])
def test_progress_agent_work_replays_bit_exactly(record, app, backend):
    """Work queued on a progress agent (the agent's ``Channel``, a counter
    of its arrivals) records in the IR's five op kinds and replays like
    everything else."""
    run, trace = record(app, backend, "laptop")
    assert run.results == [[6.0, 6.0]] * 4
    assert set(trace.manifest["op_counts"]) <= {"sleep", "call", "xfer", "add", "wait_geq"}
    assert replay(trace).makespan == run.elapsed  # exact, not approx
    assert validate_trace(trace) == []


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_comm_matrix_matches_live(record, backend):
    run, trace = record("ra", backend, "laptop")
    result = replay(trace)
    live = run.comm_matrix
    assert (result.comm_messages == live.messages).all()
    assert (result.comm_bytes == live.bytes).all()


def test_cross_spec_replay_warns_and_stays_sane(record):
    """Replay under a different machine: structure params are frozen as
    recorded, so the result carries warnings and is an approximation —
    but still a positive, finite makespan over the same op stream."""
    from repro.platforms import PLATFORMS

    run, trace = record("ra", "mpi", "laptop")
    result = replay(trace, PLATFORMS["edison"])
    assert result.spec_name == "edison"
    assert result.makespan > 0.0
    assert result.makespan != run.elapsed
    assert any("structure parameter" in w for w in result.warnings)


def test_structure_warnings_say_to_record_live_under_the_target():
    """A frozen structure parameter and a flipped SRQ path each warn, and
    each warning tells the user how to get exact costs."""
    from repro.ir.costs import structure_warnings
    from repro.platforms import PLATFORMS

    recorded = PLATFORMS["laptop"]
    target = recorded.with_overrides(name="laptop-srq", gasnet_srq_threshold=4)
    warnings = structure_warnings(recorded, target, nranks=8)
    assert [w.split(" ", 1)[0] for w in warnings] == ["structure", "SRQ"]
    for w in warnings:
        assert w.endswith(
            "for exact costs, record the program live under the target spec ('laptop-srq')"
        ), w


def _scaled_by_two(spec):
    """Every seconds-valued field x2, every rate /2: a run under the result
    takes exactly twice as long (powers of two scale IEEE floats exactly)."""
    from repro.sim.irhook import COST_FIELDS

    seconds = (*COST_FIELDS, "tx_msg_overhead", "rx_msg_overhead")
    rates = ("bandwidth", "flops_per_sec", "mem_copy_bw")
    return spec.with_overrides(
        name=spec.name + "-x2",
        **{f: getattr(spec, f) * 2 for f in seconds},
        **{f: getattr(spec, f) / 2 for f in rates},
    )


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
@pytest.mark.parametrize("app", ["ra", "fft", "cgpop"])
def test_cross_spec_replay_equals_live_under_power_of_two_scaling(
    tmp_path, record, app, backend
):
    """An oracle for cross-spec replay that needs no tolerance: under spec
    B = A with time x2, live virtual time doubles exactly, so a trace of A
    replayed under B must equal both 2 x live(A) and live(B) — which it only
    does if every modelled sleep carries its cost expression."""
    from repro.caf import run_caf
    from repro.platforms import PLATFORMS
    from repro.sim.costs import TABLE
    from tests.ir.conftest import APPS

    spec_a = PLATFORMS["laptop"]
    spec_b = _scaled_by_two(spec_a)
    run_a, trace_a = record(app, backend, "laptop")
    program, kwargs = APPS[app]
    run_b = run_caf(program, 4, spec_b, backend=backend, metrics=True, **kwargs)

    result = replay(trace_a, spec_b)

    assert run_b.elapsed == 2 * run_a.elapsed
    assert result.makespan == run_b.elapsed
    live_b = run_b.metrics.by_kind()
    assert set(result.op_totals) == set(live_b)
    closed_form = [k for k in result.op_totals if k in TABLE]
    assert closed_form  # every cell exercises the table
    for kind in closed_form:
        assert result.op_totals[kind]["time"] == live_b[kind].time, kind
    # Nothing else is re-priced, and the result says so.
    kept = sorted(k for k in result.op_totals if k not in TABLE)
    assert result.warnings == [
        "per-op totals kept recorded values for span-measured kinds: "
        + ", ".join(kept)
    ]
