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
