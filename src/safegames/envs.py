"""Benchmark game generators: seeded random games and a push-adversary grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .game import GameSpec

# Protagonist moves and adversary pushes share the same displacement table.
_MOVES = ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0))  # stay/none, N, S, E, W


@dataclass(frozen=True)
class RandomGameParams:
    n_states: int = 8
    n_u: int = 3
    n_a: int = 3
    hazard_fraction: float = 0.25
    seed: int = 0


def random_game(params: RandomGameParams) -> GameSpec:
    """Draw a game with uniform deterministic transitions and rewards in [0, 1).

    The floor(hazard_fraction * n_states) states with the lowest seeded draw
    get h = -1; everything else gets h = +1.  Identical params give
    bit-identical specs.
    """
    if not (0.0 <= params.hazard_fraction < 1.0):
        raise ValueError("hazard_fraction must lie in [0, 1)")
    if min(params.n_states, params.n_u, params.n_a) < 1:
        raise ValueError("state and action counts must be positive")

    rng = np.random.default_rng(params.seed)
    shape = (params.n_states, params.n_u, params.n_a)
    transition = rng.integers(0, params.n_states, size=shape)
    reward = rng.uniform(0.0, 1.0, size=shape)
    draws = rng.uniform(size=params.n_states)

    n_hazards = int(params.hazard_fraction * params.n_states)
    constraint = np.ones(params.n_states)
    hazard = np.argsort(draws, kind="stable")[:n_hazards]
    constraint[hazard] = -1.0

    return GameSpec(params.n_states, params.n_u, params.n_a,
                    transition, reward, constraint)


@dataclass(frozen=True)
class GridworldParams:
    width: int = 4
    height: int = 4
    hazard_cells: Tuple[Tuple[int, int], ...] = ((0, 0),)
    goal_cell: Tuple[int, int] = (3, 3)
    adversary_strength: int = 1  # 0: pushes have no effect, 1: push one cell


def gridworld(params: GridworldParams) -> GameSpec:
    """Grid game where the adversary may shove the agent one cell.

    States are cells numbered row by row (cell (x, y) is state y * width +
    x), protagonist actions are stay/N/S/E/W, adversary pushes come after
    the move on the same timestep (matching the joint dynamics f(x, u, a))
    and both displacements clip at the walls.  The constraint is the Chebyshev
    distance to the nearest hazard minus one, so hazards sit at -1 and their
    neighbours at 0; with no hazards it is the width+height sentinel.
    Reward is +1 on the goal cell and -0.01 per step elsewhere.  The tables
    are built by broadcasting the move and push tables over all cells, and
    the distance as a running minimum over the hazards, so memory stays
    linear in the cell count.
    """
    w, h = params.width, params.height
    if w < 2 or h < 2:
        raise ValueError("grid must be at least 2x2")
    if params.adversary_strength not in (0, 1):
        raise ValueError("adversary_strength must be 0 or 1")
    hazards = tuple(params.hazard_cells)
    for cx, cy in hazards:
        if not (0 <= cx < w and 0 <= cy < h):
            raise ValueError(f"hazard cell {(cx, cy)} outside the grid")
    gx, gy = params.goal_cell
    if not (0 <= gx < w and 0 <= gy < h):
        raise ValueError("goal cell outside the grid")
    if (gx, gy) in hazards:
        raise ValueError("goal cell cannot be a hazard")

    n_states = w * h
    n_u = n_a = len(_MOVES)
    cy, cx = np.divmod(np.arange(n_states, dtype=np.int64), w)
    moves = np.array(_MOVES, dtype=np.int64)
    pushes = moves * params.adversary_strength
    mx = np.clip(cx[:, None] + moves[:, 0], 0, w - 1)      # (x, u)
    my = np.clip(cy[:, None] + moves[:, 1], 0, h - 1)
    nx = mx[:, :, None] + pushes[:, 0]                     # (x, u, a)
    transition = my[:, :, None] + pushes[:, 1]
    np.clip(nx, 0, w - 1, out=nx)
    np.clip(transition, 0, h - 1, out=transition)
    transition *= w
    transition += nx

    reward = np.full((n_states, n_u, n_a), -0.01)
    reward[gy * w + gx] = 1.0
    # Starting one past the sentinel leaves w + h when there is no hazard;
    # any hazard is nearer than that.
    dist = np.full(n_states, w + h + 1, dtype=np.int64)
    for hx, hy in hazards:
        np.minimum(dist, np.maximum(np.abs(cx - hx), np.abs(cy - hy)), out=dist)

    return GameSpec(n_states, n_u, n_a, transition, reward, dist - 1)
