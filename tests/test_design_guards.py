"""Design guards: decisions earlier PRs made that a later edit must not
quietly undo. Each test is one grep over the tree with the message CI used
to print; run them locally with ``pytest tests/test_design_guards.py``."""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def grep(pattern: str, *paths: str, suffixes: tuple[str, ...] | None = (".py",)) -> list[str]:
    """``path:line:text`` of every line under ``paths`` matching ``pattern``."""
    regex = re.compile(pattern)
    hits = []
    for path in paths:
        root = ROOT / path
        files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for file in files:
            if "__pycache__" in file.parts:
                continue
            if suffixes is not None and file.suffix not in suffixes:
                continue
            try:
                text = file.read_text()
            except UnicodeDecodeError:  # not a text file
                continue
            hits += [
                f"{file.relative_to(ROOT)}:{n}:{line}"
                for n, line in enumerate(text.splitlines(), 1)
                if regex.search(line)
            ]
    return hits


def test_no_retired_engine_gate_reappears():
    hits = grep(
        r"REPRO_SIM_(FASTPATH|SHARDS|SUBSTRATE)",
        "src", "tests", "benchmarks", "docs", suffixes=None,
    )
    assert not hits, (
        "a retired REPRO_SIM_* gate is back: there is one dispatcher on one substrate",
        hits,
    )


def test_one_owner_for_host_scheduling_policy():
    hits = [
        hit for hit in grep(r"sched_set(scheduler|affinity)", "src/repro")
        if not re.match(r"src/repro/(sim/engine|experiments/parallel)\.py:", hit)
    ]
    assert not hits, (
        "only sim/engine.py (fibers) and experiments/parallel.py (pool workers) "
        "may place threads on CPUs or change their policy",
        hits,
    )


def test_one_owner_for_the_cyclic_collector():
    hits = [
        hit for hit in grep(r"gc\.(disable|enable|freeze|unfreeze|set_threshold)\(", "src/repro")
        if not hit.startswith("src/repro/sim/engine.py:")
    ]
    assert not hits, (
        "only sim/engine.py may pause or tune the cyclic collector (Engine.run "
        "pauses it while the fibers run and restores the caller's state)",
        hits,
    )
    collects = grep(r"\bgc\.collect\b|from gc import", "src/repro")
    assert not collects, (
        "nothing under src/repro runs the cyclic collector, sim/engine.py "
        "included: a finished run is acyclic and reference counting frees it "
        "(tests/sim/test_run_lifetime.py)",
        collects,
    )


def test_one_owner_for_the_allocator():
    hits = [
        hit for hit in grep(r"mallopt|M_ARENA_MAX", "src/repro")
        if not hit.startswith("src/repro/sim/engine.py:")
    ]
    assert not hits, (
        "only sim/engine.py may tune the C allocator (the first Engine.run caps "
        "glibc's malloc arenas at one before any fiber starts)",
        hits,
    )


def test_one_caf_runtime_above_the_transports():
    hits = grep(
        r"_am_board *=|itertools|_event_registry *=|_shipped *=|def (barrier|broadcast"
        r"|bcast|reduce|allreduce|alltoall|allgather|ship_function|allocate_events)\b",
        "src/repro/caf/backends",
    )
    assert not hits, (
        "a CAF backend is a transport: thunk board, event registry, shipping "
        "counters and function shipping live in caf/backend.py, blocking "
        "collectives on team.handle",
        hits,
    )
    hits = grep(
        r"obs\.record\(",
        "src/repro/caf/coarray.py", "src/repro/caf/events.py", "src/repro/caf/image.py",
    )
    assert not hits, (
        "a CAF op is timed by one span: pass kind/nbytes to img.profile(...) "
        "instead of a second clock",
        hits,
    )


def test_one_cost_model_no_price_outside_sim_costs():
    hits = grep(
        r"_irhook\.annotate\(|pending_cost *=|proc\.sleep\(.*spec\.",
        "src/repro/mpi", "src/repro/gasnet",
    )
    assert not hits, (
        "a runtime layer prices or annotates a sleep itself: go through "
        "repro.sim.costs.charge",
        hits,
    )


def test_replay_carries_no_nic_arithmetic():
    hits = grep(r"tx_free", "src/repro/ir/replay.py")
    assert not hits, (
        "replay carries its own NIC arithmetic again: step repro.sim.costs.NicState",
        hits,
    )


def test_window_construction_builds_nothing_sized_by_the_group():
    from repro.mpi.window import Window, _WindowState

    for cls in (_WindowState, Window):
        source = inspect.getsource(cls.__init__)
        hits = re.findall(r"\blen\(|\brange\(|\bfor\b|\bsize\b|\* *n\b", source)
        assert not hits, (
            f"{cls.__name__}.__init__ builds something per rank: RMA completion "
            "is origin-owned, shared window state is sparse (a window costs the "
            "same at 4 and at 4096 ranks)",
            hits,
        )


def test_team_construction_builds_nothing_sized_by_the_team():
    from repro.caf.image import Image
    from repro.gasnet.collectives import TeamExchange

    for fn in (Image.__init__, TeamExchange.__init__, TeamExchange.set_peer_bases):
        source = re.sub(r"#.*", "", inspect.getsource(fn))
        hits = re.findall(r"\brange\(|\bfor\b|\btuple\(|\blist\(|\] *\*", source)
        assert not hits, (
            f"{fn.__qualname__} builds a table per image: a team's membership "
            "and peer-base tuples are built once per team (a cluster.shared "
            "entry or the agreement's combine) and shared by its members",
            hits,
        )


def test_message_path_builds_nothing_only_diagnostics_read(monkeypatch):
    hits = grep(r"Request\(f[\"']", "src/repro")
    assert not hits, (
        "a request name is formatted per op: pass a % template and its "
        "arguments, Request(kind, proc, *args) formats it when a report reads it",
        hits,
    )
    hits = grep(r"class _Resume\b", "src/repro/sim/engine.py")
    assert not hits, (
        "a resume is the queue entry (when, seq, proc, gen), not an object per event",
        hits,
    )
    hits = grep(r"np\.empty\(0", "src/repro/mpi/p2p.py", "src/repro/mpi/collectives.py")
    assert [hit.split(":")[0] for hit in hits] == ["src/repro/mpi/p2p.py"], (
        "a zero-byte message is None end to end: one module-level empty "
        "receive view in mpi/p2p.py, no array per barrier round",
        hits,
    )
    from repro.mpi.request import Request
    from repro.sim.sync import SimEvent

    hits = grep(r"_PostedRecv|\._event\b", "src/repro/mpi", "src/repro/caf/backends")
    assert issubclass(Request, SimEvent) and not hits, (
        "a Request is its completion event: the library fires it and waiters "
        "park on it, and a posted receive is its request (src, tag, buf, "
        "dst_world); no wrapped event, no record per posted receive",
        hits,
    )
    hits = grep(r"_Envelope\b", "src/repro")
    assert not hits, (
        "a message is its send request: it carries src, tag, nbytes, the eager "
        "snapshot and the sanitizer clock, and no envelope record is built",
        hits,
    )
    from repro.mpi import status
    from repro.mpi.world import MpiWorld
    from repro.sim.cluster import Cluster
    from repro.sim.network import MachineSpec

    built = []
    init = status.Status.__init__
    monkeypatch.setattr(
        status.Status, "__init__", lambda self, *a, **kw: (built.append(1), init(self, *a, **kw))[1]
    )

    def program(ctx):
        comm = MpiWorld.get(ctx.cluster).init(ctx).COMM_WORLD
        for _ in range(3):
            comm.barrier()
        peer = ctx.rank ^ 1
        comm.isend(None, peer)
        comm.irecv(None, peer).wait()  # a status is built when a caller reads it

    Cluster(4, MachineSpec("test")).run(program)
    assert len(built) == 4, (
        "a request builds its Status only when a caller reads req.status (here: "
        "each rank's one wait()); until then a two-sided request's own src, tag "
        "and nbytes are its status",
        len(built),
    )


def test_prices_come_from_the_run_table():
    hits = [
        hit for hit in grep(r"\b(expression|price)\(", "src/repro")
        if not re.match(r"src/repro/((sim|ir)/costs|lint/stream/estimate)\.py:", hit)
    ]
    assert not hits, (
        "spec and rank count are fixed for a run: ops go through "
        "costs.cost/charge/charge_in, which look the kind up in the run's "
        "PricedTable; only sim/costs.py, ir/costs.py (replay) and "
        "lint/stream/estimate.py (the pre-run estimator: no run, so no table) "
        "evaluate expressions",
        hits,
    )


def test_contracts_are_as_narrow_as_their_traffic():
    hits = grep(
        r"_wake_payload|def take\(|\bhandler_filter\b|arena_bytes|_STREAM_MEMO"
        r"|split_boards|split_count|_win_boards|_win_counter",
        "src/repro",
    )
    hits += [
        hit for hit in grep(r"OP_TAKE|CHAIN_EXTERNAL", "src/repro")
        if "retired" not in hit
    ]
    assert not hits, (
        "a contract no caller used is back: a wake carries no payload, a "
        "counter wait does not consume (IR op kind 7 and chain kind 2 stay "
        "retired), poll/block_until read the view's default_handler_filter, "
        "a team sizes its own arena, lint keeps no memo, and split and window "
        "creation share Comm._agree_steps and its one board table",
        hits,
    )
    hits = grep(r"^\w+ *(:[^=]+)?= *itertools\.count\(", "src/repro")
    assert not hits, (
        "a module-level id counter makes ids depend on what ran earlier in "
        "the process: draw them from the run's own objects (MpiWorld, Image)",
        hits,
    )
    hits = [
        f"{file.relative_to(ROOT)}:{node.lineno}"
        for file in sorted((ROOT / "src/repro").rglob("*.py"))
        for node in ast.walk(ast.parse(file.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "send"
        and any(kw.arg == "reliable" for kw in node.keywords)
    ]
    assert not hits, (
        "the reliable transport is switched by Cluster(reliable=), not per "
        "message: fabric.send takes no reliable=",
        hits,
    )


def test_process_wide_arming_has_one_owner():
    # Module-level state in the three shapes every arming switch here ever
    # had: a name a function rebinds, a module-level list/dict display, a
    # bare None/False/[]/{} a caller is meant to overwrite or fill.
    state = (
        grep(r"^\s+global \w", "src/repro")
        + grep(r"^_?[a-z]\w*(: [^=]+)? = [\[{]", "src/repro")
        + grep(r"^\w+(: [^=]+)? = (\[\]|\{\}|set\(\)|None|False|True)$", "src/repro")
    )
    assert [hit.split(":", 2)[::2] for hit in state] == [
        ["src/repro/obs/capture.py", "    global _session"],
        ["src/repro/sim/irhook.py", "RECORDER = None"],
    ], (
        "which observers a process arms, and how their artifacts are numbered "
        "and written, is repro.obs.capture's session and nothing else: arm a "
        "part of it (capture.start / capture.capture) instead of adding a switch",
        state,
    )
    assigned = {hit.split(":")[0] for hit in grep(r"\.RECORDER = ", "src/repro")}
    assert assigned == {"src/repro/sim/cluster.py"}, (
        "the recorder is installed and removed in one try/finally, in Cluster.run",
        assigned,
    )
    hits = grep(r"capture|ir\.record|ir import record|LiveTelemetry", "src/repro/caf/program.py")
    assert not hits, (
        "run_caf passes its explicit kwargs straight to Cluster, which asks the "
        "capture; it keeps no capture, recorder or telemetry logic of its own",
        hits,
    )
    import repro.sanitizer

    hits = [
        name for name in dir(repro.sanitizer)
        if re.match(r"force_|is_forced|collected_reports|clear_reports|COLLECTED", name)
    ]
    assert not hits, ("forced sanitizing is capture(sanitize=True)", hits)


def _public_callables(owner) -> set[str]:
    return {
        name
        for name, value in vars(owner).items()
        if not name.startswith("_")
        and inspect.isfunction(getattr(value, "__func__", value))
    }


def test_protocol_surface_is_declared_once():
    import repro.mpi.request as request_module
    from repro.caf.coarray import Coarray
    from repro.caf.events import EventArray
    from repro.caf.image import Image
    from repro.gasnet.collectives import TeamExchange
    from repro.gasnet.core import GasnetRank, GasnetWorld
    from repro.lint import protocol
    from repro.lint.stream import estimate, interp
    from repro.mpi.comm import Comm
    from repro.mpi.request import Request
    from repro.mpi.window import Window
    from repro.mpi.world import MpiRank, MpiWorld
    from repro.sim import costs
    from repro.sim.cluster import Cluster

    classes = {
        "image": Image, "coarray": Coarray, "event": EventArray, "mpi_world": MpiWorld,
        "mpi": MpiRank, "comm": Comm, "window": Window, "request": Request,
        "gasnet_world": GasnetWorld, "gasnet": GasnetRank, "team": TeamExchange,
    }
    owners = {**classes, "function": request_module, "cluster": Cluster}
    declared = set(protocol.ROWS) | set(protocol.NOT_MODELLED)
    assert len(declared) == len(protocol.ROWS) + len(protocol.NOT_MODELLED), (
        "a call is either modelled or not: no (receiver, method) twice"
    )
    phantom = [key for key in declared if not callable(getattr(owners[key[0]], key[1], None))]
    assert not phantom, ("rows name methods their runtime class does not have", phantom)
    missing = [
        (recv, name)
        for recv, cls in classes.items()
        for name in sorted(_public_callables(cls))
        if (recv, name) not in declared
    ]
    assert not missing, (
        "a public runtime method is neither a row of repro.lint.protocol nor in "
        "its NOT_MODELLED tuple: declare what the linter should make of it",
        missing,
    )
    for row in protocol.ROWS.values():
        assert hasattr(interp._RankRun, f"_ret_{row.returns}"), row

    hits = grep(r"frozenset\(|repro\.lint", "src/repro/ir")
    hits = [hit for hit in hits if "import" in hit or "frozenset(" in hit]
    assert not hits, (
        "repro.ir holds the dynamic IR only: method-name vocabularies and "
        "anything else only repro.lint reads live in repro.lint.protocol",
        hits,
    )
    source = inspect.getsource(interp)
    ladder = re.findall(r"if method (?:==|in \()", source[source.index("def protocol_call"):])
    assert not ladder, (
        "interp.py dispatches a runtime call by looking its row up, not by an "
        "`if method ==` ladder",
        ladder,
    )
    pricing = inspect.getsource(estimate.static_op_seconds)
    direct = set(re.findall(r"spec\.((?:mpi|gasnet)_\w+)", pricing))
    explained = set(re.findall(r"`spec\.(\w+)` \(flag-free", " ".join(protocol.PRICE_MODELS.values())))
    assert direct == explained, (
        "static pricing reads a runtime cost field off the spec only where "
        "protocol.PRICE_MODELS says why no costs.TABLE row can price it",
        direct ^ explained,
    )
    assert set(re.findall(r'"(\w+)": lambda', pricing)) | {"table"} == set(protocol.PRICE_MODELS)
    assert set(costs.KINDS.values()) == set(protocol.PRICE_MODELS), (
        "every recorded kind is priced by a declared static model, and every model prices one"
    )


def _literals(node, assigned: dict) -> list[str]:
    """The strings an argument can be: a literal, either branch of a
    conditional, or what the enclosing function assigned to that name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literals(node.body, assigned) + _literals(node.orelse, assigned)
    if isinstance(node, ast.Name):
        return [s for value in assigned.get(node.id, ()) for s in _literals(value, assigned)]
    return []


def test_one_op_vocabulary():
    from repro.lint import protocol
    from repro.mpi.comm import Comm
    from repro.obs import scaling
    from repro.sim import costs

    # Recording site -> position of its kind argument. A cost site names a
    # TABLE row; a span site names a SPANS entry.
    cost_sites = {"cost": 1, "charge": 1, "charge_in": 1}
    span_sites = {"_observed": 0, "profile": 1, "_run_coll": 0}
    undeclared, spans = [], set()
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        where = path.relative_to(ROOT)
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            assigned: dict = {}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    assigned.setdefault(node.targets[0].id, []).append(node.value)
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
                    continue
                name, owner = call.func.attr, getattr(call.func.value, "id", None)
                if name in cost_sites and owner == "_costs":
                    index, declared = cost_sites[name], costs.TABLE
                elif name in span_sites:
                    index, declared = span_sites[name], costs.SPANS
                else:
                    continue
                if index >= len(call.args):
                    continue  # a profile region that records no op
                for kind in _literals(call.args[index], assigned):
                    if where == pathlib.Path("src/repro/mpi/comm.py") and name != "profile":
                        kind = "mpi.coll." + kind  # Comm._observed records the prefix
                    if kind not in declared:
                        undeclared.append(f"{where}:{call.lineno}: {kind}")
                    if declared is costs.SPANS:
                        spans.add(kind)
    assert '"mpi.coll." + kind' in inspect.getsource(Comm._observed), (
        "Comm._observed records mpi.coll.<kind>: the guard above reads its call sites so"
    )
    assert not undeclared, (
        "a recording site names a kind repro.sim.costs does not declare: add the "
        "TABLE row or the SPANS entry, once",
        undeclared,
    )
    assert spans == set(costs.SPANS), (
        "a declared span kind no site records: delete the SPANS entry",
        spans ^ set(costs.SPANS),
    )
    rows = [
        (row.recv, row.method, row.emits)
        for row in protocol.ROWS.values()
        if row.emits is not None
        and (
            row.emits in costs.KINDS or row.emits in costs.TABLE
            if "bookkeeping" in row.classes
            else row.emits not in costs.KINDS
        )
    ]
    assert not rows, (
        "a protocol row's kind is what the runtime records for the call (a key of "
        "costs.KINDS) or, for a call that records no op, a bookkeeping name of its own",
        rows,
    )
    named = set(scaling.CROSSCHECK_KINDS).union(*scaling.DEFAULT_EXPECTATIONS.values())
    assert named <= set(costs.KINDS), ("obs scaling names an undeclared kind", named - set(costs.KINDS))


def test_segment_costs_the_host_what_is_touched():
    hits = grep(r"np\.(zeros|empty)\(\s*segment_bytes", "src/repro/gasnet")
    hits += [
        hit for hit in grep(r"segments\[[^\]]*\] *=", "src/repro/gasnet")
        if "make_segment(" not in hit
    ]
    assert not hits, (
        "a rank's segment is made in one place, gasnet.segment.make_segment — "
        "kernel pages faulted 4 KiB at a time; a numpy-allocated one is "
        "hugepage-advised and zeroes 2 MiB per first touch",
        hits,
    )


def test_library_blocking_code_is_scripts():
    hits = grep(
        r"\.sleep\(|\.block\(|\bcharge\(",
        "src/repro/gasnet/core.py",
        "src/repro/gasnet/collectives.py",
    ) + grep(r"\.sleep\(|\.block\(|run_script\(", "src/repro/caf/backends")
    assert not hits, (
        "the GASNet runtime and both CAF transports are scripts: a cost is "
        "`yield cost(ctx, kind, ...)`, a wait is `yield from ..._steps(...)`, "
        "one body per operation, one park per blocking call — and the CAF "
        "runtime parks a fiber in one place, `RuntimeBackend._run` "
        "(caf/backend.py), on the steps a transport supplies",
        hits,
    )
    paid = [hit.split(":")[0] for hit in grep(r"costs\.charge\(", "src/repro")]
    assert paid == ["src/repro/mpi/window.py", "src/repro/sim/cluster.py"], (
        "costs.charge parks a fiber: only Window.sync and RankCtx.compute pay that way",
        paid,
    )
    parked = [
        hit for hit in grep(r"\.block\(", "src/repro")
        if not hit.startswith("src/repro/sim/engine.py:")
    ]
    assert not parked, (
        "one place parks a fiber on a wait: library waits are scripts that "
        "`yield` their reason (a Channel's get is a counter wait), and "
        "nothing outside sim/engine.py calls Proc.block",
        parked,
    )


def test_every_wait_records_as_a_counter():
    hooks = {
        match.group(1)
        for hit in grep(r"rec\.on_\w+\(", "src/repro")
        if not hit.startswith("src/repro/ir/")
        for match in re.finditer(r"rec\.(on_\w+)\(", hit)
    }
    assert hooks <= {"on_sleep", "on_call_at", "on_transfer", "on_add", "on_wait_geq", "on_obs"}, (
        "a dependence the IR records is a counter: a new waitable primitive "
        "composes sim.sync.Counter (as Channel does) and records through "
        "on_add / on_wait_geq, instead of growing the IR's op kinds",
        sorted(hooks),
    )


def test_an_async_op_is_tracked_once():
    relays = grep(
        r"class AsyncHandle|_implicit_handles|_register_async|_defer_on_event"
        r"|_release_requests|\.(local|remote)\.fire\(",
        "src/repro",
    )
    second_waits = grep(r"call_in\(|progress_wait\(", "src/repro/caf/events.py")
    assert not relays and not second_waits, (
        "an asynchronous op's completion is its transport's event, registered "
        "once in the transport's §3.5 arrays (MpiBackend._implicit_puts / "
        "_implicit_gets / _am_sends, GasnetBackend._outstanding_*); the image "
        "holds only its async collectives, and a timed event_wait is "
        "RuntimeBackend.event_wait (its timer is armed in _event_wait_steps)",
        relays + second_waits,
    )


def test_one_progress_engine():
    engine = sorted(
        f"{path}:{cls}.{fn.name}"
        for path, cls, fn in _functions("src/repro")
        if fn.name in ("kick", "_progress_steps", "_progress_wait_steps", "run_continuations")
    )
    assert engine == [
        "src/repro/caf/backend.py:RuntimeBackend._progress_steps",
        "src/repro/caf/backend.py:RuntimeBackend._progress_wait_steps",
        "src/repro/caf/backend.py:RuntimeBackend.kick",
        "src/repro/caf/backend.py:RuntimeBackend.run_continuations",
    ], (
        "an image's progress engine is written once, in RuntimeBackend: a "
        "transport supplies its AM drain (_poll_steps) and its activity "
        "counter (_activity), nothing more",
        engine,
    )
    hooks = grep(r"poll_hooks|_pump_continuations|subscribers|_post_steps", "src/repro")
    assert not hooks, (
        "work a completion releases is one (ready, fn) entry of "
        "RuntimeBackend.defer's queue, run by the progress engine after its "
        "handlers: no poll hooks, no per-slot subscribers, and a post only "
        "counts and kicks",
        hooks,
    )
    from repro.gasnet.core import GasnetRank

    assert list(inspect.signature(GasnetRank._block_until_steps).parameters) == [
        "self", "pred", "reason",
    ], "GASNET_BLOCKUNTIL takes no hook: the CAF queue runs in the CAF progress engine"


def _functions(root: str):
    """``(path, class name or None, FunctionDef)`` of every function under
    ``root``."""
    for file in sorted((ROOT / root).rglob("*.py")):
        tree = ast.parse(file.read_text())
        owner = {
            id(fn): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield str(file.relative_to(ROOT)), owner.get(id(node)), node


def test_one_transfer_per_direction():
    copies = sorted(
        f"{path}:{cls}.{fn.name}"
        for path, cls, fn in _functions("src/repro")
        if re.fullmatch(r"_\w+_runs(_nb)?_steps|coarray_\w+_runs", fn.name)
    )
    assert not copies, (
        "a one-sided transfer is runs, and one run is the contiguous case: each "
        "layer has one write script and one read script over runs (Window._put_steps "
        "/ _get_steps, GasnetRank._put_nb_steps / _get_nb_steps, the backends' "
        "_write_steps / _read_steps); a contiguous entry point builds [(offset, n)]",
        copies,
    )


def test_one_cgpop():
    stencils = sorted({hit.split(":")[0] for hit in grep(r"apply_laplacian\(", "src/repro")})
    assert stencils == ["src/repro/apps/cgpop.py", "src/repro/apps/verification.py"], (
        "CGPOP is one solver, apps.cgpop.CgSolver: only it applies the stencil "
        "(verification checks its answer with it)",
        stencils,
    )
    copies = grep(r"allreduce|exchange", "src/repro/resilience/apps.py")
    assert not copies, (
        "the resilient CGPOP is CgSolver under a recovery loop: it has no halo "
        "exchange or GlobalSum of its own",
        copies,
    )


def test_one_randomaccess():
    streams = sorted(
        {hit.split(":")[0] for hit in grep(r"generate_updates\(|apply_updates\(", "src/repro")}
    )
    assert streams == ["src/repro/apps/randomaccess.py"], (
        "RandomAccess is one router, apps.randomaccess.RaRouter: only it "
        "generates and applies update streams (the serial reference too)",
        streams,
    )
    copies = grep(r"\.write\(|allocate_events\(", "src/repro/resilience/apps.py")
    assert not copies, (
        "the resilient RandomAccess is RaRouter under a recovery loop: it "
        "routes no updates and owns no landing zone or events of its own",
        copies,
    )


def test_one_recovery_knob():
    def params(fn) -> set[str]:
        a = fn.args
        return {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}

    functions = list(_functions("src/repro"))
    knobs = [
        f"{path}:{fn.lineno}:{fn.name}" for path, _, fn in functions
        if params(fn) & {"recovery", "wait_timeout"}
        or (fn.name == "run_resilient" and "mode" in params(fn))
    ]
    assert not knobs, (
        "the recovery discipline is run_caf's in-run budget, max_recoveries: no "
        "function takes a recovery mode or wait bound (a crash reaches every wait "
        "that depends on the dead image: test_one_failure_route), and "
        "run_resilient takes no mode",
        knobs,
    )
    budgets = sorted(
        owner or fn.name for _, owner, fn in functions if "max_recoveries" in params(fn)
    )
    assert budgets == ["ResilienceService", "run_caf"], (
        "only run_caf declares the in-run budget, and only ResilienceService "
        "stores it (resilience.apps._shrink_loop reads it there)",
        budgets,
    )
    assert not grep(r"check_recovery_mode", "src/repro"), (
        "check_recovery_mode is gone: no mode string is left to check"
    )


def test_one_failure_route():
    timers = grep(r"WAIT_TIMEOUT", "src/repro")
    bounded = sorted(
        f"{path}:{fn.lineno}:{fn.name}"
        for root in ("src/repro/apps", "src/repro/resilience")
        for path, _, fn in _functions(root)
        if "timeout" in {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
    )
    from repro.resilience.apps import _ALL_FAILURES
    from repro.util.errors import CafTimeoutError

    # The recovery loop's own test (has my team lost a member?) is no wait.
    inlined = [hit for hit in grep(r"\.isdisjoint\(", "src/repro") if "resilience/apps.py" not in hit]
    assert not timers and not bounded and CafTimeoutError not in _ALL_FAILURES, (
        "a crash reaches a survivor by one route: an unsatisfied wait raises once it "
        "depends on a failed image (its target, or a member of the team or "
        "communicator it waits over). No app or recovery wait carries a timer, and a "
        "timeout is no crash for the recovery loop to admit",
        timers, bounded,
    )
    assert not inlined, (
        "a wait tests its dependence on failed images through one predicate, "
        "repro.sim.sync.unless_failed, not an inline failed-set test",
        inlined,
    )


def test_one_recovery_loop():
    catches = [
        f"{file.relative_to(ROOT)}:{node.lineno}"
        for file in sorted((ROOT / "src/repro").rglob("*.py"))
        for node in ast.walk(ast.parse(file.read_text()))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "_ALL_FAILURES" in ast.unparse(node.type)
    ]
    shrinks = [
        hit for hit in grep(r"recover_shrink\(", "src/repro") if "def recover_shrink(" not in hit
    ]
    assert len(catches) == 1 and len(shrinks) == 1, (
        "both resilient apps run one shrink-recovery loop, resilience.apps._shrink_loop: "
        "one except clause catches _ALL_FAILURES and one call site shrinks; an app "
        "supplies only how to build its object and run one iteration",
        catches, shrinks,
    )
    assert not grep(r"\b_admit\b", "src/repro"), (
        "_admit is gone: its checks are inlined in the one loop that calls them"
    )


def test_one_shrink():
    hits = grep(r"survivor_agree|kick_rank", "src/repro")
    assert not hits, (
        "a shrink agrees one way: the first survivor builds the successor for every "
        "survivor, so no survivor-only board and no cross-image kick remain",
        hits,
    )
    keys = {
        f"{path}:{cls}.{fn.name}": [
            ast.unparse(call.args[0])
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and ast.unparse(call.func).endswith(".shared")
            and not isinstance(call.args[0], ast.Constant)
        ]
        for path, cls, fn in _functions("src/repro")
        if fn.name in ("shrink", "shrink_team", "shrink_team_handle")
    }
    assert keys == {
        "src/repro/caf/image.py:Image.shrink_team": ["('caf-shrink', team.team_id)"],
        "src/repro/mpi/comm.py:Comm.shrink": ["('mpi-shrink', self.state.context_id)"],
        "src/repro/caf/backends/gasnet_backend.py:GasnetBackend.shrink_team_handle": [
            "('caf-gasnet-shrink', team.team_id)"
        ],
        "src/repro/caf/backends/mpi_backend.py:MpiBackend.shrink_team_handle": [],
        "src/repro/caf/backend.py:RuntimeBackend.shrink_team_handle": [],
    }, (
        "each shrink's shared record is keyed on the team it decides alone, never on "
        "the survivors one caller saw: the first caller's build decides for all",
        keys,
    )
    loop = next(fn for _p, _c, fn in _functions("src/repro/resilience")
                if fn.name == "_shrink_loop")

    def shrink_calls(node):
        return {
            n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and ast.unparse(n.func).endswith(".shrink")
        }

    shrinks = shrink_calls(loop)
    in_handler = set().union(
        *(shrink_calls(h) for h in ast.walk(loop) if isinstance(h, ast.ExceptHandler))
    )
    assert len(shrinks) == 1 and shrinks == in_handler, (
        "_shrink_loop shrinks the app communicator once, in its except handler right "
        "before recover_shrink, so one image decides both from one failed set",
        shrinks,
    )


def test_one_agreement_protocol():
    def barriers_on_a_result_board(fn) -> bool:
        nodes = list(ast.walk(fn))
        board = any(isinstance(n, ast.Constant) and n.value == "result" for n in nodes)
        barrier = any(
            isinstance(n, ast.Call) and "barrier" in ast.unparse(n.func) for n in nodes
        )
        return board and barrier

    agreements = [
        f"{path}:{fn.name}"
        for path, _cls, fn in _functions("src/repro")
        if barriers_on_a_result_board(fn)
    ]
    assert agreements == ["src/repro/sim/sync.py:agree_steps"], (
        "the board-plus-two-barriers round is written once, as the script "
        "repro.sim.sync.agree_steps that takes the group's barrier script",
        agreements,
    )
    wrappers = {
        (path, cls): fn
        for path, cls, fn in _functions("src/repro")
        if fn.name == "_agree_steps"
    }
    assert set(wrappers) == {
        ("src/repro/mpi/comm.py", "Comm"),
        ("src/repro/gasnet/collectives.py", "TeamExchange"),
    }, (
        "an agreement is its team handle's _agree_steps: Comm's and "
        "TeamExchange's, and no other",
        sorted(wrappers),
    )
    for where, fn in wrappers.items():
        nodes = list(ast.walk(fn))
        delegates = any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == "agree_steps" for n in nodes
        )
        own_steps = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes)
        assert delegates and not own_steps, (
            "a handle's _agree_steps wraps repro.sim.sync.agree_steps with its "
            "board table and sequence number, and takes no steps of its own",
            where,
        )
    hits = grep(r"collective_agree|_UNSET|_Unset|board_space|_agree_seq\b", "src/repro")
    assert not hits, (
        "the CAF layer agrees through RuntimeBackend.agree(team, contribution, "
        "combine), one run_script of team.handle._agree_steps: no fiber-level "
        "copy, no board-space names, no sequence registry of its own",
        hits,
    )
    from repro.caf.backend import RuntimeBackend
    from repro.caf.teams import split_team
    from repro.mpi.comm import Comm

    assert list(inspect.signature(RuntimeBackend.agree).parameters) == [
        "self", "team", "contribution", "combine",
    ]
    groupings = grep(r"\.setdefault\((c|color)\b", "src/repro")
    users = [fn.__qualname__ for fn in (Comm._partition, split_team)
             if "split_groups(" not in inspect.getsource(fn)]
    assert [hit.split(":")[0] for hit in groupings] == ["src/repro/sim/sync.py"] and not users, (
        "MPI_COMM_SPLIT and team_split group by colour and order by key "
        "through one helper, repro.sim.sync.split_groups",
        groupings, users,
    )


def test_one_owner_for_artifact_format():
    hits = [
        hit
        for hit in grep(
            r"json\.dumps\(|def need\(",
            "src/repro/obs", "src/repro/ir", "src/repro/resilience/chaos.py",
        )
        if not hit.startswith("src/repro/obs/artifact.py:")
    ]
    assert not hits, (
        "the artifact format has one owner, repro.obs.artifact: write with "
        "artifact.write / dumps_line, check fields with artifact.checker / "
        "require, and recognise, validate and diff a kind through its row of "
        "artifact.kinds()",
        hits,
    )


def test_figures_are_declarations():
    experiments = ROOT / "src/repro/experiments"
    figures = sorted(
        str(path.relative_to(ROOT))
        for pattern in ("fig0[3-9]*.py", "fig1*.py", "micro_*.py")
        for path in experiments.glob(pattern)
    )
    assert len(figures) == 12, figures
    hits = grep(r"run_caf\(", *figures)
    assert not hits, (
        "Figs. 3-12 and the micro figures declare their series and hand them "
        "to experiments/_perf.py (sweep, or breakdown for Figs. 4 and 8); "
        "only those two builders run the cells",
        hits,
    )


def test_a_plain_run_loads_the_simulator_only():
    # A fresh interpreter: in this one, other tests have loaded everything.
    script = (
        "import sys\n"
        "from repro.apps.randomaccess import run_randomaccess\n"
        "from repro.caf.program import run_caf\n"
        "run_caf(run_randomaccess, 4, backend='mpi')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    layers = r"repro\.(lint|ir|sanitizer|resilience|experiments|gasnet)\b"
    hits = [
        name for name in loaded
        if re.match(layers, name)
        or (name.startswith("repro.obs.") and name != "repro.obs.capture")
    ]
    assert "repro.caf.backends.mpi_backend" in loaded, loaded
    assert not hits, (
        "a CAF-MPI run loads the simulator, MPI and CAF-MPI: a layer it does "
        "not call is imported where it is armed, and a package __init__ "
        "re-exports nothing that would load it",
        hits,
    )
