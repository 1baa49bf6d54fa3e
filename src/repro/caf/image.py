"""The per-image CAF 2.0 facade — what a CAF "program" is written against.

An :class:`Image` corresponds to one CAF process image. It exposes the
language-level operations of §2.1 (coarrays, events, teams, collectives,
``cofence``, ``finish``, function shipping) and hides the backend.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.caf.backend import RuntimeBackend
from repro.caf.coarray import Coarray
from repro.caf.events import EventArray
from repro.caf.finish import FinishBlock
from repro.caf.teams import Team, next_team_id, split_team, world_members
from repro.util.errors import CafError, ImageFailedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.cluster import RankCtx
    from repro.sim.sync import SimEvent


def _sync_images_mark(img: "Image", from_rank: int) -> None:
    """Shipped token for :meth:`Image.sync_images`."""
    board = img.cluster.shared("caf-sync-images", dict)
    board[(img.rank, from_rank)] = board.get((img.rank, from_rank), 0) + 1
    img.backend.kick()


class Image:
    """One CAF image: identity, teams, and the CAF 2.0 operation set."""

    def __init__(self, ctx: "RankCtx", backend: RuntimeBackend):
        self.ctx = ctx
        self.backend = backend
        #: The cluster's set of failed world ranks (the same object), read
        #: by every operation's liveness check.
        self._failed_ranks = ctx.cluster.failed_ranks
        self.team_world = Team(0, world_members(ctx.cluster), ctx.rank)
        self.team_world.handle = backend.make_world_team_handle(self.team_world)
        #: Done events of this image's asynchronous collectives still
        #: running: ``cofence`` completes them. (Asynchronous puts and gets
        #: are held once, in the transport's §3.5 arrays.)
        self._async_colls: list[SimEvent] = []
        #: Numbers this image's futures (``CafFuture`` labels its event).
        self._future_ids = itertools.count()
        #: partner image -> ``sync_images`` tokens consumed from it so far.
        self._sync_consumed: dict[int, int] = {}

    # -- identity (CAF intrinsics) ------------------------------------------

    def this_image(self, team: Team | None = None) -> int:
        """Image index within ``team`` (0-based; Fortran's is 1-based)."""
        return (team or self.team_world).my_index

    def num_images(self, team: Team | None = None) -> int:
        return (team or self.team_world).size

    @property
    def cluster(self):
        """The run's :class:`~repro.sim.cluster.Cluster`, through the
        context, which lets go of it when the run ends (``None`` after)."""
        return self.ctx.cluster

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def nranks(self) -> int:
        return self.ctx.nranks

    # -- failure awareness ----------------------------------------------------

    def failed_images(self, team: Team | None = None) -> list[int]:
        """Team indices of images known to have crashed (CAF analogue of
        ULFM's failure query; fed by injected :class:`FaultPlan` crashes)."""
        team = team or self.team_world
        failed = self._failed_ranks
        return [i for i in range(team.size) if team.world_rank(i) in failed]

    def _check_alive(self, team: Team, index: int) -> None:
        """Raise :class:`ImageFailedError` when an operation names a dead image.

        Called from API entry points only — never from delivery callbacks,
        which must tolerate a peer dying with traffic in flight.
        """
        w = team.world_rank(index)
        if w in self._failed_ranks:
            raise ImageFailedError(
                w, f"image {index} of team {team.team_id} (world rank {w}) has failed"
            )

    # -- allocation -------------------------------------------------------------

    @property
    def resilience(self):
        """This image's resilience handle (checkpoint/restore hooks), or
        None when the run has no resilience service attached."""
        service = getattr(self.cluster, "resilience", None)
        if service is None:
            return None
        return service.image_handle(self)

    def allocate_coarray(self, shape, dtype=np.float64, team: Team | None = None) -> Coarray:
        """Collective over ``team``: allocate a symmetric coarray."""
        co = Coarray(self, team or self.team_world, shape, dtype)
        service = getattr(self.cluster, "resilience", None)
        if service is not None:
            service.register_coarray(self, co)
        return co

    def allocate_events(self, nslots: int = 1, team: Team | None = None) -> EventArray:
        """Collective: allocate ``nslots`` events on every team member
        (event_init on an event coarray)."""
        ev = EventArray(self, team or self.team_world, nslots)
        service = getattr(self.cluster, "resilience", None)
        if service is not None:
            service.register_events(self, ev)
        return ev

    # -- teams ---------------------------------------------------------------------

    def team_split(self, team: Team, color: int, key: int | None = None) -> Team | None:
        """CAF 2.0 team_split (collective over ``team``)."""
        return split_team(self, team, color, key)

    def shrink_team(self, team: Team | None = None) -> Team:
        """Survivor-only team over ``team``'s live members (ULFM shrink).

        Every *surviving* member of ``team`` must call this after a
        failure; dead images are excluded and never wait for one another.
        The first survivor to shrink ``team`` decides its successor from
        the failed set it sees, and every later caller gets that team:
        the failed set only grows, so a later caller is either in it (and
        refused) or a member. Survivors keep their relative order and are
        renumbered contiguously.
        """
        team = team or self.team_world
        failed = self._failed_ranks
        if self.rank in failed:
            raise CafError(
                f"image {self.rank} called shrink_team() but the run has declared "
                "it failed (a crash or a transport give-up): only survivors "
                "shrink, so end this image's program instead of recovering it"
            )
        if self.rank not in team.members:
            raise CafError(
                f"image {self.rank} is not a member of team {team.team_id}"
            )
        cluster = self.cluster
        team_id, survivors = cluster.shared(
            ("caf-shrink", team.team_id),
            lambda: (
                next_team_id(cluster),
                tuple(w for w in team.members if w not in failed),
            ),
        )
        new_team = Team(team_id, survivors, survivors.index(self.rank))
        new_team.handle = self.backend.shrink_team_handle(team, new_team)
        return new_team

    # -- synchronization --------------------------------------------------------------

    def cofence(self, *, puts: bool = True, gets: bool = True) -> None:
        """Local completion of implicitly-synchronized async ops (§3.5).

        Under CAF-MPI this is an ``MPI_WAITALL`` on the stored request
        handles of implicitly synchronized PUTs and/or GETs — the optional
        arguments are the statement's selective form ("a user can use to
        request local completion notification of PUT or GET operations").
        Asynchronous collectives always complete here.
        """
        with self.profile("cofence"):
            self.backend.cofence(puts=puts, gets=gets)
            waiting, self._async_colls = tuple(self._async_colls), []
            self.backend.progress_wait(
                lambda: all(done.is_set for done in waiting), "cofence", extras=waiting
            )

    def finish(self, team: Team | None = None, *, fast: bool | None = None) -> FinishBlock:
        """A collective ``finish`` block (use as a context manager).

        ``fast=True`` forces the flush+barrier variant (valid when no
        function shipping happens inside); ``fast=False`` forces Yang's
        termination-detection reductions; default picks automatically
        (TD when any image shipped functions inside the block).
        """
        return FinishBlock(self, team or self.team_world, fast=fast)

    def sync_all(self, team: Team | None = None) -> None:
        """Barrier + remote completion of everything this image issued."""
        self.backend.quiet()
        self.barrier(team)

    def sync_images(self, partners) -> None:
        """Fortran 2008 ``SYNC IMAGES``: pairwise synchronization with the
        named images only (who must name this image in a matching call).

        Completes this image's outstanding operations first (release
        semantics), then exchanges sync tokens with each partner — built
        on function shipping, so partners must be inside CAF calls.
        """
        partners = [int(p) for p in partners]
        for p in partners:
            if not 0 <= p < self.nranks:
                raise CafError(f"sync_images partner {p} out of range [0, {self.nranks})")
            self._check_alive(self.team_world, p)
        self.backend.quiet()
        board = self.cluster.shared("caf-sync-images", dict)
        # Each matching call consumes exactly one token per partner,
        # regardless of how early the partner's token arrived.
        needed = {
            p: self._sync_consumed.get(p, 0) + 1 for p in partners
        }
        for p in partners:
            if p == self.rank:
                board[(p, p)] = board.get((p, p), 0) + 1
            else:
                self.spawn(p, _sync_images_mark, self.rank)
        self.backend.progress_wait(
            lambda: all(board.get((self.rank, p), 0) >= needed[p] for p in partners),
            f"sync_images({partners})",
        )
        for p in partners:
            self._sync_consumed[p] = needed[p]

    # -- collectives ----------------------------------------------------------------------

    # A team's handle is its blocking-collective API on either backend (an
    # MPI communicator, a GASNet TeamExchange); the region is both the
    # profiler category and the op's metrics record.

    def barrier(self, team: Team | None = None) -> None:
        with self.profile("barrier", "caf.coll.barrier"):
            (team or self.team_world).handle.barrier()

    def team_broadcast(self, buf, root: int = 0, team: Team | None = None) -> None:
        arr = np.asarray(buf)
        with self.profile("broadcast", "caf.coll.broadcast", arr.nbytes):
            (team or self.team_world).handle.bcast(arr, root)

    def team_reduce(self, send, recv, op, root: int = 0, team: Team | None = None) -> None:
        arr = np.asarray(send)
        with self.profile("reduce", "caf.coll.reduce", arr.nbytes):
            (team or self.team_world).handle.reduce(arr, recv, op, root)

    def team_allreduce(self, send, recv, op, team: Team | None = None) -> None:
        arr = np.asarray(send)
        with self.profile("reduce", "caf.coll.allreduce", arr.nbytes):
            (team or self.team_world).handle.allreduce(arr, np.asarray(recv), op)

    def team_alltoall(self, send, recv, team: Team | None = None) -> None:
        arr = np.asarray(send)
        with self.profile("alltoall", "caf.coll.alltoall", arr.nbytes):
            (team or self.team_world).handle.alltoall(arr, np.asarray(recv))

    def team_allgather(self, send, recv, team: Team | None = None) -> None:
        arr = np.asarray(send)
        with self.profile("allgather", "caf.coll.allgather", arr.nbytes):
            (team or self.team_world).handle.allgather(arr, np.asarray(recv))

    # -- asynchronous collectives (§2.1) -----------------------------------------------

    def _collective_async(self, kind, args, team, data_event, op_event):
        """``kind`` names the blocking collective of a team handle."""
        done = self.backend.collective_async(team or self.team_world, kind, args)
        self._async_colls = [ev for ev in self._async_colls if not ev.is_set]
        self._async_colls.append(done)
        for spec_ in (data_event, op_event):
            if spec_ is not None:
                ev, slot = spec_
                done.subscribe(lambda ev=ev, slot=slot: ev._post_local(slot))

    def team_broadcast_async(
        self, buf, root: int = 0, team: Team | None = None, *,
        data_event=None, op_event=None,
    ) -> None:
        """Nonblocking broadcast; ``data_event`` posts when the local buffer
        holds the data, ``op_event`` when the operation is fully complete."""
        self._collective_async(
            "bcast", (np.asarray(buf), root), team, data_event, op_event
        )

    def team_reduce_async(
        self, send, recv, op, root: int = 0, team: Team | None = None, *,
        data_event=None, op_event=None,
    ) -> None:
        self._collective_async(
            "reduce", (np.asarray(send), recv, op, root), team, data_event, op_event
        )

    def team_allreduce_async(
        self, send, recv, op, team: Team | None = None, *,
        data_event=None, op_event=None,
    ) -> None:
        self._collective_async(
            "allreduce", (np.asarray(send), np.asarray(recv), op), team,
            data_event, op_event,
        )

    def team_alltoall_async(
        self, send, recv, team: Team | None = None, *,
        data_event=None, op_event=None,
    ) -> None:
        self._collective_async(
            "alltoall", (np.asarray(send), np.asarray(recv)), team,
            data_event, op_event,
        )

    def team_allgather_async(
        self, send, recv, team: Team | None = None, *,
        data_event=None, op_event=None,
    ) -> None:
        self._collective_async(
            "allgather", (np.asarray(send), np.asarray(recv)), team,
            data_event, op_event,
        )

    # -- function shipping ---------------------------------------------------------------------

    def spawn(self, target: int, fn: Callable[..., Any], *args: Any, team: Team | None = None) -> None:
        """Ship ``fn(img, *args)`` to run on image ``target`` of ``team``.

        The shipped function may perform the full range of CAF operations,
        including spawning more functions (§2.1). Completion is observed
        through an enclosing termination-detecting ``finish`` block.
        """
        team = team or self.team_world
        if not 0 <= target < team.size:
            raise CafError(f"spawn target {target} out of range [0, {team.size})")
        self._check_alive(team, target)
        with self.profile("spawn"):
            self.backend.ship_function(team, target, (fn, args))

    def spawn_future(self, target: int, fn: Callable[..., Any], *args: Any, team: Team | None = None):
        """Ship ``fn(img, *args)`` and get a :class:`~repro.caf.futures.CafFuture`
        that resolves to its return value (shipped back as a second AM)."""
        from repro.caf.futures import spawn_future

        team = team or self.team_world
        return spawn_future(self, team, target, fn, args)

    def serve(self, count: int = 1) -> None:
        """Drive the progress engine until ``count`` more shipped functions
        have executed on this image.

        A server-style image blocked *outside* CAF (e.g. in a pure MPI
        call) never runs Active-Message handlers — the Figure 2 lesson —
        so code expecting incoming spawns must either be inside blocking
        CAF operations or call this explicitly.
        """
        baseline = self.backend.completed_count()
        self.backend.progress_wait(
            lambda: self.backend.completed_count() >= baseline + count,
            f"serve({count})",
        )

    # -- copy_async (§2.1: source and destination may be local or remote) ---------------

    def copy_async(
        self,
        dest: "Coarray",
        dest_image: int,
        src: "Coarray",
        src_image: int,
        count: int | None = None,
        *,
        dest_offset: int = 0,
        src_offset: int = 0,
        predicate=None,
        src_event=None,
        dest_event=None,
    ) -> None:
        """CAF 2.0 ``copy_async``: move ``count`` elements from
        ``src(src_offset...)[src_image]`` to ``dest(dest_offset...)[dest_image]``.

        Either side may be this image or a remote one. The three optional
        events follow §2.1: ``predicate`` gates the start, ``src_event``
        posts when the source buffer is reusable, ``dest_event`` posts *at
        the destination image* when the data has landed.
        """
        if src.dtype != dest.dtype:
            raise CafError(
                f"copy_async dtype mismatch: {src.dtype} -> {dest.dtype}"
            )
        if count is None:
            count = min(src.nelems - src_offset, dest.nelems - dest_offset)
        me_src = src.team.world_rank(src_image) == self.rank

        def start() -> None:
            if me_src:
                data = src.local.reshape(-1)[src_offset : src_offset + count].copy()
                self._copy_deliver(dest, dest_image, dest_offset, data, src_event, dest_event)
            else:
                # Remote source: fetch first, then forward. The source
                # buffer is never ours, so src_event (buffer reuse) can
                # post as soon as the fetched copy exists.
                staging = np.empty(count, src.dtype)
                landed = self.backend.coarray_read_async(
                    src.storage, src_image, src_offset, staging
                )
                if src_event is not None:
                    ev, slot = src_event
                    landed.subscribe(lambda: ev._post_local(slot))

                def forward() -> None:
                    self._copy_deliver(
                        dest, dest_image, dest_offset, staging, None, dest_event
                    )

                # Completion fires in scheduler context; the forwarding leg
                # issues communication, so it runs as a runtime
                # continuation on this image's next progress poll.
                landed.subscribe(lambda: self.backend.defer(forward))

        if predicate is None:
            start()
        else:
            ev, slot = predicate
            ev.on_next_post(slot, start)

    def _copy_deliver(self, dest, dest_image, dest_offset, data, src_event, dest_event):
        if dest.team.world_rank(dest_image) == self.rank:
            # Local destination: a memcpy, completion is immediate.
            dest.local.reshape(-1)[dest_offset : dest_offset + data.size] = data
            if src_event is not None:
                ev, slot = src_event
                ev._post_local(slot)
            if dest_event is not None:
                ev, slot = dest_event
                ev._post_local(slot)
            return
        dest.write_async(
            dest_image,
            data,
            offset=dest_offset,
            src_event=src_event,
            dest_event=dest_event,
        )

    # -- interoperability ---------------------------------------------------------------------------

    def mpi(self):
        """The MPI facade for hybrid MPI+CAF programs (e.g. CGPOP).

        Under CAF-MPI this is the very runtime CAF uses — one runtime, full
        interoperability (the paper's goal). Under CAF-GASNet this
        initializes a *second*, independent MPI runtime beside GASNet: the
        duplicated-resources configuration of Figure 1.
        """
        return self.backend.mpi_facade()

    # -- misc -------------------------------------------------------------------------------------

    def compute(self, seconds: float | None = None, *, flops: float | None = None) -> None:
        """Charge modeled local computation time."""
        self.ctx.compute(seconds, flops=flops)

    def profile(self, category: str, kind: str | None = None, nbytes: int = 0):
        """Span of one CAF op: ``category`` in the time breakdown and, with
        ``kind``, one op record in the run's metrics (when armed)."""
        return self.ctx.profile(category, kind, nbytes)

    @property
    def now(self) -> float:
        return self.ctx.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Image {self.rank}/{self.nranks} backend={self.backend.name}>"
