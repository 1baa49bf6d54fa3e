"""Agreement helpers of the CAF runtime (both backends, teams, resilience).

Collective allocations (event arrays, team splits, GASNet coarray offset
tables) need all team members to agree on an identifier or a table. The
pattern is the standard board-plus-barrier protocol: every member deposits
its contribution keyed by a per-image collective sequence number, a
barrier makes all deposits visible, the first image out of the barrier
computes the result, and a second barrier publishes it.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.backend import RuntimeBackend
    from repro.caf.teams import Team
    from repro.sim.cluster import Cluster


def collective_agree(
    cluster: "Cluster",
    team: "Team",
    board_space: str,
    seq_space: dict[int, int],
    contribution: Any,
    combine: Callable[[dict[int, Any]], Any],
) -> Any:
    """Run one board-plus-barrier agreement round over ``team``.

    ``seq_space`` maps team_id -> this image's next sequence number for
    ``board_space`` (each image keeps its own copy, advanced identically
    because the call is collective). ``combine`` maps the full
    {my_index: contribution} dict to the agreed value.
    """
    seq = seq_space.get(team.team_id, 0)
    seq_space[team.team_id] = seq + 1
    boards = cluster.shared(board_space, dict)
    board = boards.setdefault((team.team_id, seq), {"args": {}, "result": _UNSET})
    board["args"][team.my_index] = contribution
    team.handle.barrier()
    if board["result"] is _UNSET:
        board["result"] = combine(board["args"])
    team.handle.barrier()
    return board["result"]


def survivor_agree(
    backend: "RuntimeBackend",
    cluster: "Cluster",
    key: Any,
    my_world: int,
    participants: tuple[int, ...],
    contribution: Any,
    combine: Callable[[dict[int, Any]], Any],
) -> Any:
    """Barrier-free agreement among ``participants`` (world ranks).

    After an image failure the regular board-plus-barrier protocol is
    unusable: dead images never reach the barrier. Survivors instead
    deposit into a board keyed by ``key``, kick every other participant's
    progress engine, and spin in ``progress_wait`` until the board is
    full. The first image to see a full board computes the combined
    result; everyone returns it. Every participant must call with the
    same ``key`` and ``participants`` (guaranteed upstream by deriving
    both from the agreed survivor set).
    """
    boards = cluster.shared("caf-survivor-agree", dict)
    board = boards.setdefault(key, {"args": {}, "result": _UNSET})
    board["args"][my_world] = contribution
    for w in participants:
        if w != my_world:
            try:
                backend.kick_rank(w)
            except KeyError:  # participant not yet registered; it will poll
                pass
    backend.progress_wait(
        lambda: len(board["args"]) >= len(participants),
        f"survivor_agree({key!r})",
    )
    if board["result"] is _UNSET:
        board["result"] = combine(board["args"])
    return board["result"]


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


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
