"""Coordinated checkpointing: quiesce, snapshot, persist.

The protocol is the classic coordinated one, mapped onto the runtime's own
synchronization machinery:

1. **Quiesce.** Every participating image completes its outstanding
   one-sided traffic (``backend.quiet()`` — the release barrier plus
   FLUSH_ALL walk under CAF-MPI, handle sync under CAF-GASNet) and enters a
   team barrier, so no put, send, or event post is in flight anywhere when
   the snapshot is cut.
2. **Snapshot.** Each image deposits a copy of its registered state — every
   coarray segment, every event-slot count, plus an opaque app-state blob —
   into the agreement board.
3. **Commit.** The first image out of the barrier assembles the deposits
   into one versioned :class:`Checkpoint` and appends it to the
   :class:`CheckpointStore` (optionally persisting to disk); a second
   barrier publishes the commit.

Because the store holds *every* image's segments, a survivor can later read
a dead image's partition out of the last checkpoint — the simulation-level
stand-in for checkpointing to a parallel file system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.util.errors import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.coarray import Coarray
    from repro.caf.events import EventArray
    from repro.caf.image import Image
    from repro.caf.teams import Team

CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """One committed, globally consistent snapshot.

    ``coarrays[rank]`` / ``events[rank]`` list that image's registered
    allocations *in allocation order* — the key a restarted run uses to
    find its own state again, and a shrink recovery uses to find the dead
    image's partitions.
    """

    step: int
    time: float
    nranks: int
    members: tuple[int, ...]  # world ranks that cut this checkpoint
    version: int = CHECKPOINT_VERSION
    coarrays: dict[int, list[np.ndarray]] = field(default_factory=dict)
    events: dict[int, list[list[int]]] = field(default_factory=dict)
    app_state: dict[int, Any] = field(default_factory=dict)

    def coarray_partition(self, rank: int, index: int) -> np.ndarray:
        """The saved segment of image ``rank``'s ``index``-th coarray."""
        try:
            return self.coarrays[rank][index]
        except (KeyError, IndexError):
            raise ResilienceError(
                f"checkpoint step {self.step} has no coarray {index} "
                f"for image {rank}"
            ) from None


class CheckpointStore:
    """Ordered checkpoint archive, in memory and optionally on disk.

    With ``dirpath`` set, every committed checkpoint is persisted as an
    ``.npz`` (array payloads) plus a ``.json`` sidecar (metadata and the
    JSON-serializable app state), and :meth:`load` can rebuild the store
    in a fresh process — the restart path.
    """

    def __init__(self, dirpath: str | Path | None = None):
        self.dirpath = Path(dirpath) if dirpath is not None else None
        self.checkpoints: list[Checkpoint] = []
        if self.dirpath is not None:
            self.dirpath.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self.checkpoints)

    def save(self, ckpt: Checkpoint) -> None:
        self.checkpoints.append(ckpt)
        if self.dirpath is not None:
            self._persist(ckpt)

    def latest(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    # -- disk format -------------------------------------------------------

    def _paths(self, step: int) -> tuple[Path, Path]:
        assert self.dirpath is not None
        stem = self.dirpath / f"ckpt-{step:08d}"
        return stem.with_suffix(".npz"), stem.with_suffix(".json")

    def _persist(self, ckpt: Checkpoint) -> None:
        npz_path, json_path = self._paths(ckpt.step)
        arrays: dict[str, np.ndarray] = {}
        for rank, arrs in ckpt.coarrays.items():
            for i, arr in enumerate(arrs):
                arrays[f"co_{rank}_{i}"] = arr
        for rank, slots in ckpt.events.items():
            for i, counts in enumerate(slots):
                arrays[f"ev_{rank}_{i}"] = np.asarray(counts, np.int64)
        np.savez(npz_path, **arrays)
        meta = {
            "version": ckpt.version,
            "step": ckpt.step,
            "time": ckpt.time,
            "nranks": ckpt.nranks,
            "members": list(ckpt.members),
            "app_state": {str(r): s for r, s in ckpt.app_state.items()},
        }
        json_path.write_text(json.dumps(meta, indent=1, sort_keys=True))

    @classmethod
    def load(cls, dirpath: str | Path) -> "CheckpointStore":
        """Rebuild a store from a checkpoint directory (restart path)."""
        store = cls(dirpath)
        assert store.dirpath is not None
        for json_path in sorted(store.dirpath.glob("ckpt-*.json")):
            meta = json.loads(json_path.read_text())
            if meta["version"] != CHECKPOINT_VERSION:
                raise ResilienceError(
                    f"{json_path}: checkpoint version {meta['version']} "
                    f"!= supported {CHECKPOINT_VERSION}"
                )
            ckpt = Checkpoint(
                step=meta["step"],
                time=meta["time"],
                nranks=meta["nranks"],
                members=tuple(meta["members"]),
                app_state={int(r): s for r, s in meta["app_state"].items()},
            )
            with np.load(json_path.with_suffix(".npz")) as payload:
                for name in payload.files:
                    kind, rank_s, idx_s = name.split("_")
                    rank, idx = int(rank_s), int(idx_s)
                    table = ckpt.coarrays if kind == "co" else ckpt.events
                    lst = table.setdefault(rank, [])
                    while len(lst) <= idx:
                        lst.append(None)  # filled below
                    value = payload[name]
                    lst[idx] = value if kind == "co" else value.tolist()
            store.checkpoints.append(ckpt)
        return store


class ResilienceService:
    """Cluster-attached checkpoint/restore coordinator.

    Installed by ``run_caf(checkpoint_every=..., checkpoint_store=...,
    resume_from=..., max_recoveries=...)``, whose in-run shrink budget it
    stores; images reach it through ``img.resilience``. It
    tracks every coarray/event allocation per image (allocation order is
    the restore key) and, when a resume checkpoint is set, transparently
    refills matching allocations as they are re-made — so a restarted
    program re-executes its allocation preamble and wakes up holding the
    checkpointed data.
    """

    def __init__(
        self,
        *,
        every: int | None = None,
        store: CheckpointStore | None = None,
        resume: Checkpoint | None = None,
        max_recoveries: int = 0,
    ):
        if every is not None and every <= 0:
            raise ResilienceError(f"checkpoint_every must be positive, got {every}")
        self.every = every
        self.store = store if store is not None else CheckpointStore()
        self.resume = resume
        self.max_recoveries = max_recoveries
        self._handles: dict[int, ImageResilience] = {}
        self._coarrays: dict[int, list["Coarray"]] = {}
        self._events: dict[int, list["EventArray"]] = {}
        #: Committed checkpoints this run (the resume one not included).
        self.taken = 0

    def image_handle(self, img: "Image") -> "ImageResilience":
        handle = self._handles.get(img.rank)
        if handle is None:
            handle = self._handles[img.rank] = ImageResilience(self, img)
        return handle

    # -- allocation registry + transparent restore -------------------------

    def register_coarray(self, img: "Image", co: "Coarray") -> None:
        lst = self._coarrays.setdefault(img.rank, [])
        index = len(lst)
        lst.append(co)
        ckpt = self.resume
        if ckpt is None or img.rank not in ckpt.coarrays:
            return
        saved = ckpt.coarrays[img.rank]
        if index < len(saved) and saved[index].size == co.nelems:
            co.local.reshape(-1)[:] = np.asarray(
                saved[index], co.dtype
            ).reshape(-1)

    def register_events(self, img: "Image", ev: "EventArray") -> None:
        lst = self._events.setdefault(img.rank, [])
        index = len(lst)
        lst.append(ev)
        ckpt = self.resume
        if ckpt is None or img.rank not in ckpt.events:
            return
        saved = ckpt.events[img.rank]
        if index < len(saved) and len(saved[index]) == ev.nslots:
            for slot, count in enumerate(saved[index]):
                delta = int(count) - ev.storage.count(slot)
                if delta > 0:
                    for _ in range(delta):
                        ev.storage.post(slot)
                elif delta < 0:  # pragma: no cover - defensive
                    ev.storage.consume(slot, -delta)

    # -- snapshot ----------------------------------------------------------

    def _snapshot_rank(self, rank: int) -> tuple[list, list]:
        coarrays = [co.local.reshape(-1).copy() for co in self._coarrays.get(rank, [])]
        events = []
        for ev in self._events.get(rank, []):
            events.append([ev.storage.count(s) for s in range(ev.nslots)])
        return coarrays, events


class ImageResilience:
    """Per-image facade of the :class:`ResilienceService`."""

    def __init__(self, service: ResilienceService, img: "Image"):
        self.img = img
        # A restarted run resumes the global iteration count, so the
        # checkpoint cadence stays aligned across restarts.
        self._step = 0 if service.resume is None else service.resume.step

    @property
    def service(self) -> ResilienceService:
        """The run's service, reached through the image: the service holds
        this handle, so an edge of its own back would be a cycle."""
        return self.img.cluster.resilience

    # -- resume-side queries ----------------------------------------------

    @property
    def resumed(self) -> Checkpoint | None:
        """The checkpoint this run was restarted from (None on a cold start)."""
        return self.service.resume

    def resume_step(self) -> int:
        """Loop index to restart from (0 on a cold start)."""
        ckpt = self.service.resume
        return 0 if ckpt is None else ckpt.step

    def resume_state(self, default: Any = None) -> Any:
        """This image's app-state blob from the resume checkpoint."""
        ckpt = self.service.resume
        if ckpt is None:
            return default
        return ckpt.app_state.get(self.img.rank, default)

    def latest(self) -> Checkpoint | None:
        """Most recent committed checkpoint (resume or this run's)."""
        return self.service.store.latest() or self.service.resume

    def coarray_index(self, co: "Coarray") -> int:
        """Allocation index of ``co`` — its restore key in checkpoints."""
        return self.service._coarrays[self.img.rank].index(co)

    # -- checkpoint-side --------------------------------------------------

    def step(self, state: Any = None, team: "Team | None" = None) -> bool:
        """Advance the iteration counter; checkpoint on the configured cadence.

        Collective: every image of ``team`` must call once per iteration
        with an identical schedule. Returns True when this call committed
        a checkpoint.
        """
        self._step += 1
        every = self.service.every
        if every is None or self._step % every != 0:
            return False
        self.checkpoint(state, team=team)
        return True

    def checkpoint(self, state: Any = None, team: "Team | None" = None) -> Checkpoint:
        """Cut one coordinated checkpoint over ``team`` (collective).

        Quiesces first — outstanding puts/sends/event posts drain through
        ``backend.quiet()`` and a team barrier — then snapshots and
        commits through the board agreement, so the artifact is globally
        consistent by construction.
        """
        img = self.img
        service = self.service
        team = team or img.team_world
        with img.profile("checkpoint"):
            img.backend.quiet()
            img.barrier(team)
            my_world = team.world_rank(team.my_index)
            coarrays, events = service._snapshot_rank(my_world)
            step = self._step

            def commit(args: dict[int, Any]) -> Checkpoint:
                ckpt = Checkpoint(
                    step=step,
                    time=img.ctx.engine.now,
                    nranks=img.nranks,
                    members=tuple(team.members),
                )
                for idx, (cos, evs, app) in args.items():
                    w = team.world_rank(idx)
                    ckpt.coarrays[w] = cos
                    ckpt.events[w] = evs
                    if app is not None:
                        ckpt.app_state[w] = app
                service.store.save(ckpt)
                service.taken += 1
                return ckpt

            return img.backend.agree(team, (coarrays, events, state), commit)

    # -- recovery-side ----------------------------------------------------

    def recover_shrink(self, team: "Team | None" = None) -> tuple["Team", Checkpoint | None]:
        """Survivor-side shrink recovery: agree on the dead set, rebuild.

        Every surviving image of ``team`` calls this after observing a
        failure (an :class:`~repro.util.errors.ImageFailedError`, a revoked
        team, ...). Returns the shrunken team plus the last committed
        checkpoint to repartition from, or None if the crash predates the
        first one: the caller then cold-restarts on the shrunken team.
        Either way the iteration counter rewinds to the checkpoint's step
        (0 for a cold restart): survivors that saw the failure in different
        iterations must agree on the next :meth:`step` that checkpoints.
        """
        img = self.img
        # Decided once, with the shrink, by its first caller: a survivor
        # still finishing the checkpoint's agreement may commit a newer one.
        ckpt = img.cluster.shared(
            ("shrink-checkpoint", (team or img.team_world).team_id), self.latest
        )
        small = img.shrink_team(team)
        self._step = 0 if ckpt is None else ckpt.step
        return small, ckpt
