"""Per-rank virtual-time category accounting.

Regenerates the paper's HPCToolkit-style time decompositions (Figures 4
and 8): each rank attributes its elapsed virtual time to the innermost
active category (``computation``, ``coarray_write``, ``event_wait``,
``event_notify``, ``alltoall``, ...). Accounting is *exclusive*: entering a
nested region pauses the parent region's clock.

A region may also name the *op* it spans (``kind``, ``nbytes``): the same
``engine.now`` pair then feeds the op-level metrics registry
(:mod:`repro.obs.metrics`) with the op's inclusive time: one span times a
CAF op for both the breakdown and its op record.
"""

from __future__ import annotations

from repro.sim.engine import Engine


class _Region:
    """Reentrant-safe region context manager.

    A plain ``__slots__`` class instead of a ``@contextmanager`` generator:
    entering/leaving a region is on the simulator's per-operation hot path
    (every modeled sleep is wrapped in one), and the generator protocol
    costs several calls plus a frame per use.
    """

    __slots__ = ("profiler", "rank", "category", "kind", "nbytes", "entered")

    def __init__(
        self, profiler: Profiler, rank: int, category: str, kind: str | None, nbytes: int
    ):
        self.profiler = profiler
        self.rank = rank
        self.category = category
        self.kind = kind
        self.nbytes = nbytes

    def __enter__(self) -> None:
        prof = self.profiler
        rank = self.rank
        category = self.category
        counts = prof.counts[rank]
        counts[category] = counts.get(category, 0) + 1
        self.entered = now = prof.engine.now
        stack = prof._stack[rank]
        if stack:  # the enclosing region's segment ends here
            top = stack[-1]
            times = prof.times[rank]
            times[top[0]] = times.get(top[0], 0.0) + now - top[1]
            top[1] = now
        stack.append([category, now])

    def __exit__(self, *exc: object) -> None:
        prof = self.profiler
        rank = self.rank
        now = prof.engine.now
        stack = prof._stack[rank]
        cat, start = stack.pop()
        times = prof.times[rank]
        times[cat] = times.get(cat, 0.0) + now - start
        if stack:
            stack[-1][1] = now
        tracer = prof.tracer
        if tracer is not None and tracer.enabled:
            tracer.record("region", rank, self.entered, now, category=self.category)
        if self.kind is not None and exc[0] is None:
            # An op that raised did not complete: its time stays in the
            # category breakdown, but it is not a recorded op.
            metrics = prof.metrics
            if metrics is not None:
                metrics.record(rank, self.kind, self.nbytes, now - self.entered)


class Profiler:
    def __init__(self, engine: Engine, nranks: int, tracer=None):
        self.engine = engine
        self.nranks = nranks
        self.tracer = tracer
        #: The run's :class:`~repro.obs.metrics.Metrics` when armed (set by
        #: the cluster), else None: regions that name an op record it there.
        self.metrics = None
        self.times: list[dict[str, float]] = [{} for _ in range(nranks)]
        self.counts: list[dict[str, int]] = [{} for _ in range(nranks)]
        # Per rank: stack of [category, segment_start] with the top segment open.
        self._stack: list[list[list]] = [[] for _ in range(nranks)]

    def region(
        self, rank: int, category: str, kind: str | None = None, nbytes: int = 0
    ) -> _Region:
        """Attribute enclosed virtual time on ``rank`` to ``category``.

        With ``kind``, a clean exit also records one completed op of that
        kind (``nbytes``, inclusive virtual time) in the metrics registry,
        when the run has one.
        """
        return _Region(self, rank, category, kind, nbytes)

    def sleep_in(self, rank: int, proc, category: str, duration: float) -> None:
        """Charge a modeled compute/overhead sleep to ``category``."""
        with self.region(rank, category):
            proc.sleep(duration)

    def total(self, category: str) -> float:
        """Sum of ``category`` time across all ranks."""
        return sum(t.get(category, 0.0) for t in self.times)

    def rank_total(self, rank: int, category: str) -> float:
        return self.times[rank].get(category, 0.0)

    def mean(self, category: str) -> float:
        return self.total(category) / self.nranks

    def categories(self) -> list[str]:
        cats: set[str] = set()
        for t in self.times:
            cats.update(t)
        return sorted(cats)

    def breakdown(self) -> dict[str, float]:
        """Mean per-rank time for every category (the figures' bar segments)."""
        return {c: self.mean(c) for c in self.categories()}
