"""The cost model's seams: two evaluators, one NIC step, one table.

``repro.sim.costs`` prices every op once; what can still drift is (a) the
scalar evaluator against the vectorised one, and a run's priced table
against both, (b) the table against what live ops actually record, (c) the
shared NIC step against the fabric that wraps it, and (d) the rendered
table in the docs. Each gets a test.
"""

import pathlib
import types

import numpy as np
import pytest

from repro.gasnet.core import GasnetWorld
from repro.mpi import SUM
from repro.mpi.world import MpiWorld
from repro.obs.metrics import Metrics
from repro.platforms import PLATFORMS
from repro.sim import costs, irhook
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.network import MachineSpec, NetFabric

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CK_KINDS = [getattr(irhook, n) for n in dir(irhook) if n.startswith("CK_")]


# -- (a) scalar evaluator == vectorised evaluator ---------------------------


@pytest.mark.parametrize("platform", ["laptop", "fusion", "edison"])
def test_scalar_price_equals_eval_costs_bit_for_bit(platform, monkeypatch):
    spec = PLATFORMS[platform]
    rng = np.random.default_rng(20140215)
    nfields = len(irhook.COST_FIELDS)
    closed_form = [ck for ck in CK_KINDS if ck != irhook.CK_LIT]
    assert sorted(CK_KINDS) == list(range(10))  # every kind is exercised

    for nranks in (4, 256):  # SRQ off / on (threshold 128)
        rows = []
        for ck in closed_form:
            for _ in range(50):
                # Field indices where the kind reads a field, operands
                # (byte counts, group sizes, world ranks) elsewhere.
                field0, field1 = rng.integers(0, nfields, 2).tolist()
                n0, n1 = rng.integers(0, 1 << 24, 2).tolist()
                r0, r1 = rng.integers(0, nranks, 2).tolist()
                rows.append(
                    {
                        irhook.CK_PARAM: (ck, field0, 0, 0),
                        irhook.CK_PARAM2: (ck, field0, field1, 0),
                        irhook.CK_COPY: (ck, n0, 0, 0),
                        irhook.CK_PARAM_COPY: (ck, field0, n0, 0),
                        irhook.CK_PARAM2_COPY: (ck, field0, field1, n0),
                        irhook.CK_FLOPS: (ck, n0, 0, 0),
                        irhook.CK_MUL: (ck, field0, n1, 0),
                        irhook.CK_ACK: (ck, r0, r1, 0),
                        irhook.CK_HANDLER: (ck, 0, 0, 0),
                    }[ck]
                )
        cols = np.array(rows, dtype=np.float64).T
        vector = costs.eval_costs(
            costs.cost_index(cols[0].astype(np.uint8)), cols[1], cols[2], cols[3],
            np.zeros(len(rows)), spec, nranks,
        )
        for row, got in zip(rows, vector.tolist()):
            assert costs.price(row, spec, nranks) == got, (row, nranks)

    # CK_LIT has nothing to evaluate: the recorded duration passes through.
    lit = costs.eval_costs(
        costs.cost_index(np.array([irhook.CK_LIT], np.uint8)), *np.zeros((3, 1)),
        np.array([1.25e-6]), spec, 4,
    )
    assert lit.tolist() == [1.25e-6]

    # Third leg: what a run pays. cost()/charge_in() look the op up in the
    # run's priced table; the seconds and the expression handed to the IR
    # recorder are those of expression() + price(), first call or repeat.
    threshold = spec.mpi_eager_threshold
    sizes = [0, 8, threshold, threshold + 1] + rng.integers(0, 1 << 24, 6).tolist()
    rec = types.SimpleNamespace(pending_cost=None)
    monkeypatch.setattr(irhook, "RECORDER", rec)
    for over_sendrecv in (False, True):
        variant = spec.with_overrides(mpi_rma_over_sendrecv=over_sendrecv)
        for nranks in (4, 256):  # SRQ off / on
            delays = []
            # charge_in schedules at now + delay: at now = 0 the time is the delay
            engine = types.SimpleNamespace(now=0.0, call_at=lambda when, fn: delays.append(when))
            ctx = types.SimpleNamespace(
                prices=costs.PricedTable(variant, nranks), metrics=None, rank=0, engine=engine
            )
            for kind in costs.TABLE:
                for n in sizes:
                    a, b = rng.integers(0, nranks, 2).tolist()
                    expr = costs.expression(kind, variant, n, a, b)
                    for _ in range(2):
                        rec.pending_cost = "untouched"
                        ran = []
                        got = costs.cost(ctx, kind, n, a, b)
                        if expr is None:
                            assert got is None and rec.pending_cost == "untouched"
                            costs.charge_in(ctx, kind, lambda: ran.append(1), n, a, b)
                            assert ran == [1] and rec.pending_cost == "untouched"
                            continue
                        want = costs.price(expr, variant, nranks)
                        assert (got, rec.pending_cost) == (want, expr), (kind, n, a, b)
                        rec.pending_cost = None
                        costs.charge_in(ctx, kind, lambda: ran.append(1), n, a, b)
                        assert (delays.pop(), rec.pending_cost) == (want, expr)
                        assert not ran and not delays


def test_priced_table_holds_nothing_per_rank_pair_or_without_bound():
    spec = PLATFORMS["fusion"]
    nranks = 256
    table = costs.PricedTable(spec, nranks)
    held = len(table)
    pairs = [(a, b) for a in range(64) for b in range(64)]
    for a, b in pairs:  # 4,096 distinct (a, b): priced per call, never kept
        expr = costs.expression("ack", spec, 0, a, b)
        assert table.priced("ack", 0, a, b) == (expr, costs.price(expr, spec, nranks))
    for group in range(1, 300):
        table.priced("mpi.flush_all.walk", a=group)
    assert len(table) == held
    # Sizes are remembered, up to a cap: a run sends few distinct ones.
    for n in range(5000):
        table.priced("copy", n)
    assert held < len(table) <= held + 1024
    assert table.priced("copy", 4999) == table.priced("copy", 4999)


# -- (b) every recorded table kind has a live producer, at the table price ----


def _spied_cluster(spec):
    """A P=2 cluster whose metrics also append every ``record`` row, in call
    order, to the list returned with it."""
    rows = []

    class Spy(Metrics):
        def record(self, rank, kind, nbytes=0, seconds=0.0):
            rows.append((kind, nbytes, seconds))
            super().record(rank, kind, nbytes, seconds)

    cluster = Cluster(2, spec, metrics=True)
    cluster.metrics = Spy(2)
    return cluster, rows


def _drive_every_recorded_entry_point(spec):
    """Run each Window / p2p / GasnetRank entry point once at P=2, small and
    large payloads; returns every ``Metrics.record`` row in call order."""
    small = spec.mpi_eager_threshold // 8 // 4  # elements: well under eager
    large = spec.mpi_eager_threshold // 8 * 2  # elements: twice the threshold
    cluster, rows = _spied_cluster(spec)

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        g = GasnetWorld.get(ctx.cluster).attach(ctx, 1 << 20)
        comm = mpi.COMM_WORLD
        win = mpi.win_allocate(shape=large, dtype=np.float64)
        win.lock_all()
        for n in (small, large):
            data = np.ones(n)
            if ctx.rank == 0:
                win.rput(data, 1).wait()
                win.rget(np.empty(n), 1).wait()
                win.raccumulate(data, 1, op=SUM).wait()
                halves = [(0, n // 2), (n // 2, n - n // 2)]
                win.put_runs(data, 1, halves)
                win.get_runs(np.empty(n), 1, halves).wait()
                win.rflush(1).wait()
                win.rflush_all().wait()
                comm.send(data, 1)
                handles = [
                    g.put_nb(1, 0, data),
                    g.get_nb(np.empty(n), 1, 0),
                    g.put_runs_nb(1, [(0, 4 * n), (4 * n, 4 * n)], data),
                    g.get_runs_nb(np.empty(n), 1, [(0, 4 * n), (4 * n, 4 * n)]),
                ]
                g.wait_syncnb_all(handles)
            else:
                comm.recv(np.empty(n), 0)
        if ctx.rank == 0:
            g.am_request_short(1, 7, 1)
            g.am_request_medium(1, 7, np.ones(small), 1)
        else:
            seen = []
            g.register_handler(7, lambda token, *args: seen.append(args))
            g.block_until(lambda: len(seen) == 2, "both AMs")
        win.unlock_all()
        comm.barrier()

    cluster.run(program)
    return rows, 8 * small, 8 * large


@pytest.mark.parametrize("over_sendrecv", [False, True])
def test_every_recorded_kind_is_emitted_live_at_the_table_price(over_sendrecv):
    spec = MachineSpec(name="t", mpi_rma_over_sendrecv=over_sendrecv)
    rows, small, large = _drive_every_recorded_entry_point(spec)

    recorded = {k for k, row in costs.TABLE.items() if row.recorded}
    seen_sizes: dict[str, set] = {}
    for kind, nbytes, seconds in rows:
        if kind in recorded:
            expr = costs.expression(kind, spec, nbytes)
            assert seconds == costs.price(expr, spec, 2), (kind, nbytes)
            seen_sizes.setdefault(kind, set()).add(nbytes)
    assert set(seen_sizes) == recorded  # no producer-less row

    # Both sides of the eager threshold were priced for the two-sided and
    # payload-carrying kinds.
    for kind in ("mpi.send", "mpi.recv", "mpi.rput", "mpi.put_runs", "gasnet.put_runs"):
        assert {small, large} <= seen_sizes[kind], kind
    eager = costs.expression("mpi.send", spec, small)
    rendezvous = costs.expression("mpi.send", spec, large)
    assert eager[0] == irhook.CK_PARAM_COPY and rendezvous[0] == irhook.CK_PARAM
    # ...and the structure flag changed the RMA rows, not just their price.
    rput = costs.expression("mpi.rput", spec, small)
    assert rput[0] == (irhook.CK_PARAM2 if over_sendrecv else irhook.CK_PARAM)


def test_one_run_records_the_contiguous_kind():
    """A runs call over one run is a contiguous transfer: it records the
    contiguous kind (no pack term), whichever entry point was called."""
    cluster, rows = _spied_cluster(MachineSpec(name="t"))

    def program(ctx):
        mpi = MpiWorld.get(ctx.cluster).init(ctx)
        g = GasnetWorld.get(ctx.cluster).attach(ctx, 1 << 20)
        win = mpi.win_allocate(shape=8, dtype=np.float64)
        win.lock_all()
        if ctx.rank == 0:
            win.put_runs(np.ones(4), 1, [(2, 4)])
            win.get_runs(np.empty(4), 1, [(2, 4)]).wait()
            g.wait_syncnb_all([
                g.put_runs_nb(1, [(16, 32)], np.ones(4)),
                g.get_runs_nb(np.empty(4), 1, [(16, 32)]),
            ])
        win.unlock_all()
        mpi.COMM_WORLD.barrier()

    cluster.run(program)
    one_sided = {
        f"{lib}.{op}" for lib, ops in (("mpi", ("rput", "rget")), ("gasnet", ("put", "get")))
        for op in (*ops, "put_runs", "get_runs")
    }
    transfers = [(kind, nbytes) for kind, nbytes, _ in rows if kind in one_sided]
    assert transfers == [
        ("mpi.rput", 32), ("mpi.rget", 32), ("gasnet.put", 32), ("gasnet.get", 32),
    ]


def test_span_measured_kinds_are_not_table_kinds():
    """mpi.cas / mpi.fetch_op / flushes record a measured round-trip span;
    a closed form for them would be a second, disagreeing price."""
    from repro.ir.costs import obs_formula

    spec = MachineSpec(name="t")
    for kind in ("mpi.cas", "mpi.fetch_op", "mpi.flush", "mpi.flush_all",
                 "mpi.flush_all.idle", "mpi.fetch_and_op", "mpi.lock"):
        assert obs_formula(kind, np.array([8]), spec, spec, 2) is None, kind


# -- (c) the shared NIC step ---------------------------------------------------


def _nic_spec(**kw):
    base = dict(
        name="nic", latency=1e-6, bandwidth=1e9, header_bytes=64,
        tx_msg_overhead=1e-7, rx_msg_overhead=2e-7, loopback_latency=3e-7,
        mem_copy_bw=6e9, ranks_per_node=2,
    )
    base.update(kw)
    return MachineSpec(**base)


def test_nic_step_cases_and_fabric_agreement():
    spec = _nic_spec()
    ser = (1000 + 64) / 1e9
    nic = costs.NicState(spec, 6)

    # Intra-node (ranks 0, 1 share a node): memcpy, no NIC clocks touched.
    assert nic.deliver(0, 1, 1000, 0.0, 0.0) == 0.0 + 3e-7 + 1000 / 6e9
    assert nic.deliver(1, 1, 1000, 0.0, 5e-6) == 3e-7 + 1000 / 6e9  # rx_extra ignored
    assert nic.tx_free == [0.0] * 6 and nic.rx_free == [0.0] * 6

    # Idle NICs: latency + serialization + rx occupancy.
    first = nic.deliver(0, 2, 1000, 0.0, 0.0)
    assert first == (0.0 + 1e-6) + ser + 2e-7
    # Busy tx: the second injection departs when the first left the NIC.
    depart = 0.0 + ser + 1e-7
    assert nic.tx_free[0] == depart
    busy_tx = nic.deliver(0, 4, 1000, 0.0, 0.0)
    assert busy_tx == (depart + 1e-6) + ser + 2e-7
    # Busy rx: a head arriving before the NIC is free waits for it.
    busy_rx = nic.deliver(5, 2, 1000, 0.0, 0.0)
    assert busy_rx == first + ser + 2e-7
    # rx_extra adds destination occupancy (and holds the NIC that long).
    with_extra = nic.deliver(4, 2, 1000, 0.0, 6e-6)
    assert with_extra == busy_rx + ser + 2e-7 + 6e-6
    assert nic.rx_free[2] == with_extra

    # Per-pair FIFO clamp: a tiny intra-node message issued after a big one
    # cannot overtake it.
    nic = costs.NicState(spec, 2)
    big = nic.deliver(0, 1, 1 << 20, 0.0, 0.0)
    small = nic.deliver(0, 1, 1, 1e-9, 0.0)
    assert small == big > 1e-9 + 3e-7 + 1 / 6e9

    # NetFabric.transfer is this step plus bookkeeping: same delivery times.
    script = [
        (0, 1, 1000, 0.0), (0, 2, 1000, 0.0), (0, 4, 1000, 0.0),
        (5, 2, 1000, 0.0), (4, 2, 1000, 6e-6), (0, 1, 1 << 20, 0.0), (0, 1, 1, 0.0),
    ]
    nic = costs.NicState(spec, 6)
    want = [nic.deliver(s, d, nb, 0.0, extra) for s, d, nb, extra in script]
    eng = Engine()
    fabric = NetFabric(eng, 6, spec)
    got = []

    def body(proc):
        for s, d, nb, extra in script:
            got.append(fabric.transfer(s, d, nb, lambda: None, rx_extra=extra))
        proc.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert got == want
    assert fabric.nic.tx_free == nic.tx_free and fabric.nic.rx_free == nic.rx_free


# -- (d) the rendered table ------------------------------------------------------


def test_docs_embed_the_current_cost_table():
    doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
    assert costs.render_table() in doc, (
        "docs/architecture.md is out of date; paste the output of\n"
        "  PYTHONPATH=src python -c 'from repro.sim.costs import render_table;"
        " print(render_table())'"
    )
