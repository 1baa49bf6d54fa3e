"""Agreement helpers of the CAF runtime beside the team handle's round.

Collective allocations (event arrays, team splits, GASNet coarray offset
tables, checkpoints) agree through ``RuntimeBackend.agree``: one round of
the team handle's ``_agree_steps``, a wrapper of
:func:`repro.sim.sync.agree_steps`. What is left here is the barrier-free
round of a post-failure shrink, which dead images cannot barrier in, and
the cluster-wide id counters a combine draws from.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.caf.backend import RuntimeBackend
    from repro.sim.cluster import Cluster


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
    board = boards.setdefault(key, {"args": {}})
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
    if "result" not in board:
        board["result"] = combine(board["args"])
    return board["result"]


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
