"""GASNet core semantics: AMs, polling progress, RDMA put/get, SRQ."""

import numpy as np
import pytest

from repro.sim.network import MachineSpec
from repro.util.errors import DeadlockError, GasnetError, SimulationError

from tests.gasnet.conftest import gasnet_run


def test_put_writes_remote_segment(run):
    def program(g, ctx):
        if ctx.rank == 0:
            g.put(1, 100, np.arange(8, dtype=np.uint8))
            g.am_request_short(1, 1, 0)  # tell rank 1 it can look
        else:
            done = []
            g.register_handler(1, lambda token, x: done.append(x))
            g.block_until(lambda: done, "waiting for signal")
            return g.segment[100:108].tolist()

    _, results = gasnet_run(program, 2)
    assert results[1] == list(range(8))


def test_blocking_put_is_remotely_complete_on_return(run):
    def program(g, ctx):
        if ctx.rank == 0:
            g.put(1, 0, np.array([123], dtype=np.uint8))
            # No further synchronization: remote memory must already be set.
            assert g.segment_of(1)[0] == 123

    gasnet_run(program, 2)


def test_get_reads_remote_segment(run):
    def program(g, ctx):
        g.segment[:4] = ctx.rank + 10
        # Everyone reads from rank 0. No sync needed: rank 0 wrote its own
        # segment before any remote get can arrive... make it robust anyway:
        buf = np.zeros(4, np.uint8)
        g.get(buf, 0, 0)
        return buf.tolist()

    _, results = gasnet_run(program, 3)
    assert results[0] == [10] * 4


def test_put_nb_handle_completion(run):
    def program(g, ctx):
        if ctx.rank == 0:
            h = g.put_nb(1, 0, np.full(16, 5, np.uint8))
            assert not h.done
            g.wait_syncnb(h)
            assert h.done
            assert g.segment_of(1)[0] == 5

    gasnet_run(program, 2)


def test_am_short_args_and_reply(run):
    def program(g, ctx):
        log = []
        served = []

        def add(token, a, b):
            served.append((a, b))
            token.reply_short(2, a + b)

        g.register_handler(1, add)
        g.register_handler(2, lambda token, s: log.append((token.src, s)))
        if ctx.rank == 0:
            g.am_request_short(1, 1, 20, 22)
            g.block_until(lambda: log, "waiting for reply")
            return log[0]
        # The target must re-enter GASNet for the request handler to run.
        g.block_until(lambda: served, "serving one request")

    _, results = gasnet_run(program, 2)
    assert results[0] == (1, 42)


# GASNet specification, core API, "Active Message Interface", on what a
# handler may do: a request handler may send at most one reply, to the
# requester; a reply handler may send nothing at all.


def test_second_reply_from_one_request_handler_is_refused(run):
    def program(g, ctx):
        def eager(token, x):
            token.reply_short(2, x)
            token.reply_short(2, x + 1)

        g.register_handler(7, eager)
        g.register_handler(2, lambda token, x: None)
        if ctx.rank == 0:
            g.am_request_short(1, 7, 5)
        else:
            g.block_until(lambda: False, "serving")

    with pytest.raises(GasnetError, match="handler 7 .*at most one reply per request"):
        gasnet_run(program, 2)


def test_reply_from_a_reply_handler_is_refused(run):
    def program(g, ctx):
        g.register_handler(1, lambda token: token.reply_short(2))
        g.register_handler(2, lambda token: token.reply_short(3))  # runs as a reply
        g.register_handler(3, lambda token: None)
        if ctx.rank == 0:
            g.am_request_short(1, 1)
        g.block_until(lambda: False, "serving")

    with pytest.raises(GasnetError, match="handler 2 .*no reply from a reply handler"):
        gasnet_run(program, 2)


def test_one_reply_is_sent_when_the_handler_returns(run):
    """The reply is injected by ``poll`` after the handler returns: what the
    handler does after asking for it still precedes it on the wire."""

    def program(g, ctx):
        order = []

        def serve(token, x):
            token.reply_short(2, x)
            order.append("after-reply-call")

        g.register_handler(1, serve)
        g.register_handler(2, lambda token, x: order.append(("reply", token.src, x)))
        if ctx.rank == 0:
            g.am_request_short(1, 1, 9)
            g.block_until(lambda: order, "waiting for reply")
            return order
        g.block_until(lambda: order, "serving one request")
        return order

    _, results = gasnet_run(program, 2)
    assert results == [[("reply", 1, 9)], ["after-reply-call"]]


@pytest.mark.parametrize("call", ["put", "poll", "sleep"])
def test_handler_that_blocks_is_refused(call):
    """A handler runs inside ``poll``'s script, on whichever fiber is driving
    it: blocking there would park the wrong fiber, so the engine refuses and
    says what to do."""

    def program(g, ctx):
        def blocking(token):
            if call == "put":
                g.put(0, 0, np.zeros(4, np.uint8))
            elif call == "poll":
                g.poll()
            else:
                ctx.proc.sleep(1e-6)

        g.register_handler(1, blocking)
        if ctx.rank == 0:
            g.am_request_short(1, 1)
        else:
            g.block_until(lambda: False, "serving")

    with pytest.raises(SimulationError, match="called from inside a script of") as exc_info:
        gasnet_run(program, 2)
    assert "yield it / use yield from" in str(exc_info.value)


def test_handler_may_return_its_remaining_steps(run):
    """What a handler may not do itself — here a request of its own — it
    returns as a script, and ``poll`` takes the steps."""

    def program(g, ctx):
        got, forwarded = [], []

        def forward(token, x):
            forwarded.append(x)
            return g._am_inject_steps((ctx.rank + 1) % ctx.nranks, 2, (x + 1,), None, None)

        g.register_handler(1, forward)
        g.register_handler(2, lambda token, x: got.append((token.src, x)))
        if ctx.rank == 0:
            g.am_request_short(1, 1, 40)
        elif ctx.rank == 1:
            g.block_until(lambda: forwarded, "forwarding one request")
        else:
            g.block_until(lambda: got, "waiting for the forwarded AM")
            return got

    _, results = gasnet_run(program, 3)
    assert results[2] == [(1, 41)]


def test_am_medium_payload(run):
    def program(g, ctx):
        got = []

        def handler(token, payload, tag):
            got.append((tag, payload.view(np.float64).copy()))

        g.register_handler(3, handler)
        if ctx.rank == 0:
            g.am_request_medium(1, 3, np.array([2.5, 3.5]), 9)
        else:
            g.block_until(lambda: got, "waiting for medium AM")
            tag, data = got[0]
            return tag, data.tolist()

    _, results = gasnet_run(program, 2)
    assert results[1] == (9, [2.5, 3.5])


def test_am_long_lands_payload_in_segment(run):
    def program(g, ctx):
        got = []

        def handler(token, offset, nbytes, tag):
            got.append((offset, nbytes, tag))

        g.register_handler(4, handler)
        if ctx.rank == 0:
            g.am_request_long(1, 4, np.arange(4, dtype=np.uint8), 64, 7)
        else:
            g.block_until(lambda: got, "waiting for long AM")
            offset, nbytes, tag = got[0]
            assert (offset, nbytes, tag) == (64, 4, 7)
            return g.segment[64:68].tolist()

    _, results = gasnet_run(program, 2)
    assert results[1] == [0, 1, 2, 3]


def test_am_handlers_only_run_when_target_polls(run):
    def program(g, ctx):
        hits = []
        g.register_handler(1, lambda token: hits.append(ctx.now))
        if ctx.rank == 0:
            g.am_request_short(1, 1)
        else:
            ctx.compute(5.0)  # not in a GASNet call: no handler progress
            assert not hits
            g.poll()
            assert hits and hits[0] >= 5.0
            return hits[0]

    _, results = gasnet_run(program, 2)
    assert results[1] >= 5.0


def test_blocked_outside_gasnet_never_handles_am():
    """The Figure 2 hazard: an AM round-trip deadlocks if the target never
    re-enters GASNet."""

    def program(g, ctx):
        acked = []
        g.register_handler(1, lambda token: token.reply_short(2))
        g.register_handler(2, lambda token: acked.append(1))
        if ctx.rank == 0:
            g.am_request_short(1, 1)
            g.block_until(lambda: acked, "waiting for ack")
        # rank 1 simply returns: never polls, never handles the request.

    with pytest.raises(DeadlockError):
        gasnet_run(program, 2)


def test_am_ordering_preserved_per_pair(run):
    def program(g, ctx):
        got = []
        g.register_handler(1, lambda token, i: got.append(i))
        if ctx.rank == 0:
            for i in range(10):
                g.am_request_short(1, 1, i)
        else:
            g.block_until(lambda: len(got) == 10, "waiting for 10 AMs")
            return got

    _, results = gasnet_run(program, 2)
    assert results[1] == list(range(10))


def test_srq_threshold_slows_am_handling():
    fast = MachineSpec(
        name="t", ranks_per_node=1, gasnet_srq_threshold=None, gasnet_srq_penalty=1e-4
    )
    slow = MachineSpec(
        name="t", ranks_per_node=1, gasnet_srq_threshold=2, gasnet_srq_penalty=1e-4
    )

    def program(g, ctx):
        count = []
        g.register_handler(1, lambda token, i: count.append(i))
        if ctx.rank == 0:
            t0 = ctx.now
            for i in range(50):
                g.am_request_short(1, 1, i)
            g.put(1, 0, np.array([1], np.uint8))  # remotely-complete fence
            return ctx.now - t0
        g.block_until(lambda: len(count) == 50, "collecting")

    _, r_fast = gasnet_run(program, 2, spec=fast)
    _, r_slow = gasnet_run(program, 2, spec=slow)
    assert r_slow[0] > r_fast[0] * 2


def test_segment_bounds_checked(run):
    def program(g, ctx):
        g.put(0, 1 << 20, np.zeros(16, np.uint8))

    with pytest.raises(GasnetError, match="outside rank"):
        gasnet_run(program, 1)


def test_double_attach_rejected(run):
    def program(g, ctx):
        from repro.gasnet.core import GasnetWorld

        GasnetWorld.get(ctx.cluster).attach(ctx, 1024)

    with pytest.raises(GasnetError, match="twice"):
        gasnet_run(program, 1)


def test_medium_payload_size_limit(run):
    def program(g, ctx):
        g.am_request_medium(0, 1, np.zeros(1 << 20, np.uint8))

    with pytest.raises(GasnetError, match="AMMaxMedium"):
        gasnet_run(program, 1)


def test_too_many_am_args_rejected(run):
    def program(g, ctx):
        g.register_handler(1, lambda token, *a: None)
        g.am_request_short(0, 1, *range(20))

    with pytest.raises(GasnetError, match="AMMaxArgs"):
        gasnet_run(program, 1)


def test_memory_model_srq_vs_nosrq():
    srq_spec = MachineSpec(name="t", gasnet_srq_threshold=2)
    nosrq_spec = MachineSpec(name="t", gasnet_srq_threshold=None)

    def program(g, ctx):
        return ctx.memory.rank_mb(ctx.rank, prefix="gasnet/")

    _, with_srq = gasnet_run(program, 4, spec=srq_spec)
    _, without = gasnet_run(program, 4, spec=nosrq_spec)
    assert without[0] > with_srq[0]  # SRQ saves memory


def test_gasnet_and_mpi_memory_duplicate():
    """Figure 1: initializing both runtimes doubles the footprint."""
    from repro.mpi.world import MpiWorld
    from repro.sim.cluster import Cluster

    spec = MachineSpec(name="t")
    cluster = Cluster(4, spec, seed=1)

    def program(ctx):
        from repro.gasnet.core import GasnetWorld

        GasnetWorld.get(ctx.cluster).attach(ctx, 1 << 16)
        MpiWorld.get(ctx.cluster).init(ctx)
        both = ctx.memory.rank_mb(ctx.rank)
        gasnet_only = ctx.memory.rank_mb(ctx.rank, prefix="gasnet/")
        mpi_only = ctx.memory.rank_mb(ctx.rank, prefix="mpi/")
        return gasnet_only, mpi_only, both

    results = cluster.run(program)
    gasnet_mb, mpi_mb, both_mb = results[0]
    assert both_mb == pytest.approx(gasnet_mb + mpi_mb)
    assert mpi_mb > gasnet_mb  # MPI's footprint dominates (paper Fig. 1)
