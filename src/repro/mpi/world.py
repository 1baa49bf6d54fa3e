"""MPI world: per-cluster shared state and the per-rank entry facade.

Usage from a rank program::

    world = MpiWorld.get(ctx.cluster)
    mpi = world.init(ctx)            # MPI_Init
    mpi.COMM_WORLD.barrier()
    win = mpi.win_allocate(1024)     # MPI_WIN_ALLOCATE on COMM_WORLD
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import Comm, _CommState
from repro.mpi.window import (
    Window,
    win_allocate,
    win_allocate_shared,
    win_create_dynamic,
)
from repro.sim.cluster import Cluster, RankCtx
from repro.sim.memory import MB
from repro.util.errors import MpiError


class MpiWorld:
    """Shared MPI library state for one cluster run."""

    @classmethod
    def get(cls, cluster: Cluster) -> "MpiWorld":
        return cluster.shared("mpi-world", lambda: cls(cluster))

    def __init__(self, cluster: Cluster):
        # No edge back to the cluster: the communicators reach it. Their
        # states register in ``comm_states`` for :meth:`_end_run` to cut.
        self.nranks = cluster.nranks
        #: The cluster's own list: each communicator registers its ULFM
        #: handler there (the cluster drops them when the run ends).
        self.failure_listeners = cluster.failure_listeners
        self._context_counter = 0
        self.initialized: set[int] = set()
        self._window_counter = 0
        self.comm_states: list[_CommState] = []

    def _end_run(self) -> None:
        """The run is over (``Cluster._end_run``): a message nobody received
        still routes back to its queue, so it lets go of its route, and the
        world of its communicators."""
        for state in self.comm_states:
            for matching in (state.user, state.coll, state.nbc):
                for queue in matching.unexpected:
                    for send in queue:
                        send._comm = send._matching = None
        self.comm_states.clear()

    def next_context_id(self) -> int:
        cid = self._context_counter
        self._context_counter += 1
        return cid

    def next_win_id(self) -> int:
        """A fresh window id; call under agreement (one builder per window)."""
        wid = self._window_counter
        self._window_counter += 1
        return wid

    def init(self, ctx: RankCtx) -> "MpiRank":
        """MPI_Init for one rank: registers it and charges the memory model."""
        if ctx.rank in self.initialized:
            raise MpiError(f"rank {ctx.rank} called MPI init twice")
        self.initialized.add(ctx.rank)
        spec = ctx.spec
        ctx.memory.alloc(ctx.rank, "mpi/base", spec.mpi_mem_base_mb * MB)
        ctx.memory.alloc(
            ctx.rank,
            "mpi/peers",
            spec.mpi_mem_per_rank_mb * MB * self.nranks,
        )
        state = ctx.cluster.shared(
            "mpi-comm-world",
            lambda: _CommState(self, tuple(range(self.nranks)), self.next_context_id()),
        )
        return MpiRank(self, ctx, state)


class MpiRank:
    """Per-rank MPI facade (what MPI_Init hands back)."""

    def __init__(self, world: MpiWorld, ctx: RankCtx, world_state: _CommState):
        self.world = world
        self.ctx = ctx
        self.COMM_WORLD = Comm(world_state, ctx, ctx.rank)

    def win_allocate(
        self,
        nbytes: int | None = None,
        *,
        shape: tuple[int, ...] | int | None = None,
        dtype=np.float64,
        comm: Comm | None = None,
        memory_model: str = "unified",
    ) -> Window:
        """MPI_WIN_ALLOCATE (collective over ``comm``, default COMM_WORLD)."""
        return win_allocate(
            comm or self.COMM_WORLD,
            nbytes=nbytes,
            shape=shape,
            dtype=dtype,
            memory_model=memory_model,
        )

    def win_allocate_shared(
        self,
        *,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
        comm: Comm | None = None,
    ) -> Window:
        """MPI_WIN_ALLOCATE_SHARED (collective; same-node groups only)."""
        return win_allocate_shared(
            comm or self.COMM_WORLD, shape=shape, dtype=dtype
        )

    def win_create_dynamic(self, *, dtype=np.uint8, comm: Comm | None = None) -> Window:
        """MPI_WIN_CREATE_DYNAMIC (collective)."""
        return win_create_dynamic(comm or self.COMM_WORLD, dtype=dtype)
