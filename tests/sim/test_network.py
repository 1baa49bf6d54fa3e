"""Unit tests for MachineSpec and NetFabric timing behaviour."""

import pytest

from repro.sim.engine import Engine
from repro.sim.network import MachineSpec, NetFabric
from repro.util.errors import SimulationError


def make_spec(**kw):
    defaults = dict(
        name="test",
        latency=1e-6,
        bandwidth=1e9,
        header_bytes=0,
        tx_msg_overhead=0.0,
        rx_msg_overhead=0.0,
        loopback_latency=1e-7,
        ranks_per_node=1,
        mem_copy_bw=1e10,
    )
    defaults.update(kw)
    return MachineSpec(**defaults)


def run_transfer(spec, nranks, transfers):
    """Run a list of (src, dst, nbytes) transfers issued at t=0; return delivery times."""
    eng = Engine()
    fabric = NetFabric(eng, nranks, spec)
    deliveries = {}

    def body(p):
        for i, (src, dst, nbytes) in enumerate(transfers):
            fabric.transfer(src, dst, nbytes, lambda i=i: deliveries.setdefault(i, eng.now))
        p.sleep(100.0)

    eng.spawn(body)
    eng.run()
    return [deliveries[i] for i in range(len(transfers))]


def test_single_transfer_latency_plus_serialization():
    spec = make_spec()
    (t,) = run_transfer(spec, 2, [(0, 1, 1000)])
    assert t == pytest.approx(1e-6 + 1000 / 1e9)


def test_zero_byte_transfer_costs_latency_only():
    spec = make_spec()
    (t,) = run_transfer(spec, 2, [(0, 1, 0)])
    assert t == pytest.approx(1e-6)


def test_header_bytes_added_to_wire_time():
    spec = make_spec(header_bytes=1000)
    (t,) = run_transfer(spec, 2, [(0, 1, 1000)])
    assert t == pytest.approx(1e-6 + 2000 / 1e9)


def test_tx_serialization_queues_back_to_back_sends():
    spec = make_spec()
    ts = run_transfer(spec, 3, [(0, 1, 1000), (0, 2, 1000)])
    ser = 1000 / 1e9
    assert ts[0] == pytest.approx(1e-6 + ser)
    # Second message cannot inject until the first has left the NIC.
    assert ts[1] == pytest.approx(ser + 1e-6 + ser)


def test_per_message_nic_overheads_throttle_message_rate():
    spec = make_spec(tx_msg_overhead=5e-6)
    ts = run_transfer(spec, 3, [(0, 1, 0), (0, 2, 0)])
    # The second zero-byte message waits out the first's injection overhead.
    assert ts[1] == pytest.approx(5e-6 + 1e-6)


def test_rx_msg_overhead_penalizes_incast():
    spec = make_spec(rx_msg_overhead=5e-6)
    ts = run_transfer(spec, 3, [(0, 2, 0), (1, 2, 0)])
    assert ts[0] == pytest.approx(1e-6 + 5e-6)
    assert ts[1] == pytest.approx(1e-6 + 2 * 5e-6)


def test_rx_serialization_models_incast():
    spec = make_spec()
    ts = run_transfer(spec, 3, [(0, 2, 1000), (1, 2, 1000)])
    ser = 1000 / 1e9
    assert ts[0] == pytest.approx(1e-6 + ser)
    # Rank 1's message arrives concurrently but must wait for rank 2's NIC.
    assert ts[1] == pytest.approx(1e-6 + 2 * ser)


def test_intranode_uses_loopback_path():
    spec = make_spec(ranks_per_node=2)
    (t,) = run_transfer(spec, 2, [(0, 1, 1000)])
    assert t == pytest.approx(1e-7 + 1000 / 1e10)


def test_self_transfer_uses_loopback_path():
    spec = make_spec()
    (t,) = run_transfer(spec, 2, [(1, 1, 1000)])
    assert t == pytest.approx(1e-7 + 1000 / 1e10)


def test_transfer_counts_messages_and_bytes():
    eng = Engine()
    spec = make_spec()
    fabric = NetFabric(eng, 2, spec)

    def body(p):
        fabric.transfer(0, 1, 500, lambda: None)
        fabric.transfer(1, 0, 700, lambda: None)
        p.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert fabric.messages_sent == 2
    assert fabric.bytes_sent == 1200


def test_bad_rank_rejected():
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec())

    def body(p):
        fabric.transfer(0, 5, 10, lambda: None)

    eng.spawn(body)
    with pytest.raises(SimulationError):
        eng.run()


def test_negative_size_rejected():
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec())

    def body(p):
        fabric.transfer(0, 1, -1, lambda: None)

    eng.spawn(body)
    with pytest.raises(SimulationError):
        eng.run()


def test_repeat_transfers_on_one_pair_queue_behind_the_nic():
    """Repeat transfers on one ordered pair price by the same formula each
    time and leave one FIFO entry behind."""
    eng = Engine()
    spec = make_spec()
    fabric = NetFabric(eng, 3, spec)
    times = []

    def body(p):
        for _ in range(4):
            times.append(fabric.transfer(0, 1, 1000, lambda: None))
        p.sleep(100.0)

    eng.spawn(body)
    eng.run()
    assert len(fabric.nic.pair_last) == 1  # one ordered pair seen
    ser = 1000 / 1e9
    # Back-to-back sends queue behind the NIC: k-th message departs after
    # k-1 serializations, exactly as the memoization-free model priced it.
    for k, t in enumerate(times):
        assert t == pytest.approx(k * ser + 1e-6 + ser)


def test_memoized_intranode_path_follows_node_map():
    """With 2 ranks/node, (0,1) and (2,3) are shared-memory pairs while
    (1,2) crosses nodes — the memoized cost tuples must preserve that."""
    spec = make_spec(ranks_per_node=2)
    intra01, intra23 = run_transfer(spec, 4, [(0, 1, 1000), (2, 3, 1000)])
    (inter12,) = run_transfer(spec, 4, [(1, 2, 1000)])
    shared_mem = 1e-7 + 1000 / 1e10
    assert intra01 == pytest.approx(shared_mem)
    assert intra23 == pytest.approx(shared_mem)
    assert inter12 == pytest.approx(1e-6 + 1000 / 1e9)


def test_intranode_transfer_bypasses_nic_state():
    """Shared-memory copies never occupy a NIC: an intra-node burst leaves
    the injection/delivery clocks untouched for wire traffic."""
    eng = Engine()
    fabric = NetFabric(eng, 2, make_spec(ranks_per_node=2))

    def body(p):
        for _ in range(10):
            fabric.transfer(0, 1, 10_000, lambda: None)
        p.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert fabric.nic.tx_free == [0.0, 0.0]
    assert fabric.nic.rx_free == [0.0, 0.0]


def test_nic_message_rate_limit_under_memoized_model():
    """Per-message injection occupancy throttles a zero-byte burst to one
    departure per ``tx_msg_overhead``, independent of bandwidth."""
    spec = make_spec(tx_msg_overhead=5e-6)
    # Distinct destinations: only the source NIC's rate limit applies.
    ts = run_transfer(spec, 5, [(0, d, 0) for d in (1, 2, 3, 4)])
    for k, t in enumerate(ts):
        assert t == pytest.approx(k * 5e-6 + 1e-6)


def test_with_overrides_recomputes_memoized_fabric_costs():
    """dataclasses.replace re-runs __post_init__, so an overridden spec's
    precomputed cost tuple reflects the new values."""
    spec = make_spec()
    fat = spec.with_overrides(bandwidth=2e9, latency=3e-6)
    (t,) = run_transfer(fat, 2, [(0, 1, 1000)])
    assert t == pytest.approx(3e-6 + 1000 / 2e9)


def test_spec_with_overrides_returns_modified_copy():
    spec = make_spec()
    spec2 = spec.with_overrides(latency=5e-6)
    assert spec2.latency == 5e-6
    assert spec.latency == 1e-6
    assert spec2.bandwidth == spec.bandwidth


def test_spec_flops_time():
    spec = make_spec()
    assert spec.flops_time(8e9) == pytest.approx(8e9 / spec.flops_per_sec)


def test_srq_active_threshold():
    spec = make_spec(gasnet_srq_threshold=128)
    assert not spec.srq_active(64)
    assert spec.srq_active(128)
    assert spec.srq_active(4096)
    off = make_spec(gasnet_srq_threshold=None)
    assert not off.srq_active(4096)
