"""CAF 2.0 teams: first-class process groups (§2.1).

A team (a) is a domain for coarray allocation, (b) renames images by
relative index, and (c) isolates collective communication — the three
purposes the paper lists. ``TEAM_WORLD`` exists at startup; new teams come
from :meth:`Image.team_split`.

The membership agreement is one round on the parent team's handle
(:meth:`~repro.caf.backend.RuntimeBackend.agree`), grouped by the same
colour/key partition as ``MPI_COMM_SPLIT``
(:func:`~repro.sim.sync.split_groups`); backends only build their per-team
handle (an MPI communicator / a GASNet TeamExchange) from the agreed
membership.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.sync import split_groups
from repro.util.errors import CafError, ImageFailedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.image import Image
    from repro.sim.cluster import Cluster


class Team:
    """One image's view of a team."""

    def __init__(self, team_id: int, members: tuple[int, ...], my_index: int):
        self.team_id = team_id
        self.members = members  # team index -> world rank
        self.my_index = my_index
        #: Backend-specific, and the team's blocking-collective API
        #: (``barrier()``, ``bcast(buf, root)``, ``allreduce(...)``, ...).
        self.handle: Any = None

    @property
    def size(self) -> int:
        return len(self.members)

    def world_rank(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise CafError(f"image index {index} out of range [0, {self.size})")
        return self.members[index]

    def failed_member(self, w: int, what: str | None = None) -> ImageFailedError:
        """The error of ``what`` (an op, or a wait over this team) that
        depends on member world rank ``w``, which has failed."""
        return ImageFailedError(w, (
            f"{what + ': ' if what else ''}image {self.members.index(w)} of team "
            f"{self.team_id} (world rank {w}) has failed: recover on the survivors "
            "(shrink_team) or restart from a checkpoint"
        ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Team {self.team_id} image {self.my_index}/{self.size}>"


def next_global_id(cluster: "Cluster", space: str, first: int = 0) -> int:
    """Draw from a cluster-wide monotone counter that starts at ``first``
    (call under agreement)."""
    box = cluster.shared(space, lambda: [first])
    value = box[0]
    box[0] += 1
    return value


def next_team_id(cluster: "Cluster") -> int:
    """A fresh team id (0 is TEAM_WORLD); call under agreement. Async twins
    of CAF-GASNet teams draw from the same space."""
    return next_global_id(cluster, "caf-team-ids", first=1)


def world_members(cluster: "Cluster") -> tuple[int, ...]:
    """TEAM_WORLD's membership: one tuple per run, shared by every image
    (a tuple per image would be O(P^2) host memory across the job)."""
    return cluster.shared("caf-team-world", lambda: tuple(range(cluster.nranks)))


def split_team(img: "Image", parent: Team, color: int, key: int | None) -> Team | None:
    """Collective team split over ``parent`` (CAF 2.0 team_split).

    Returns the new team, or None for ``color < 0``.
    """
    if key is None:
        key = parent.my_index

    def assign(args: dict[int, tuple[int, int]]):
        result: dict[int, tuple[int, tuple[int, ...], int]] = {}
        # Built here, once per new team: every member's Team shares it.
        for indices in split_groups(args):
            team_id = next_team_id(img.cluster)
            members = tuple(parent.members[idx] for idx in indices)
            for new_index, idx in enumerate(indices):
                result[idx] = (team_id, members, new_index)
        return result

    entry = img.backend.agree(parent, (color, key), assign).get(parent.my_index)
    # Every parent member participates in handle construction (the MPI
    # backend's comm split is itself collective), even color<0 images.
    handle = img.backend.split_team_handle(parent, color, key, entry)
    if entry is None:
        return None
    team_id, members, my_index = entry
    team = Team(team_id, members, my_index)
    team.handle = handle
    return team
