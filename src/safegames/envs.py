"""Benchmark game generators: seeded random games and a push-adversary grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .game import GameSpec

# Protagonist moves and adversary pushes share the same displacement table.
_MOVES = ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0))  # stay/none, N, S, E, W
MOVE_NAMES = ("stay", "N", "S", "E", "W")


@dataclass(frozen=True)
class RandomGameParams:
    n_states: int = 8
    n_u: int = 3
    n_a: int = 3
    reward_range: Tuple[float, float] = (0.0, 1.0)
    hazard_fraction: float = 0.25
    seed: int = 0
    gamma: float = 0.95
    gamma_h: float = 0.99


def random_game(params: RandomGameParams) -> GameSpec:
    """Draw a game with uniform deterministic transitions and rewards.

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
    lo, hi = params.reward_range
    reward = rng.uniform(lo, hi, size=shape)
    draws = rng.uniform(size=params.n_states)

    n_hazards = int(params.hazard_fraction * params.n_states)
    constraint = np.ones(params.n_states)
    hazard = np.argsort(draws, kind="stable")[:n_hazards]
    constraint[hazard] = -1.0

    return GameSpec(params.n_states, params.n_u, params.n_a,
                    transition, reward, constraint,
                    gamma=params.gamma, gamma_h=params.gamma_h)


@dataclass(frozen=True)
class GridworldParams:
    width: int = 4
    height: int = 4
    hazard_cells: Tuple[Tuple[int, int], ...] = ((0, 0),)
    goal_cell: Tuple[int, int] = (3, 3)
    adversary_strength: int = 1  # 0: pushes have no effect, 1: push one cell
    gamma: float = 0.95
    gamma_h: float = 0.99


def _cell_index(cx: int, cy: int, width: int) -> int:
    return cy * width + cx


def gridworld(params: GridworldParams) -> GameSpec:
    """Grid game where the adversary may shove the agent one cell.

    States are cells, protagonist actions are stay/N/S/E/W, adversary pushes
    come after the move on the same timestep (matching the joint dynamics
    f(x, u, a)) and both displacements clip at the walls.  The constraint is
    the Chebyshev distance to the nearest hazard minus one, so hazards sit at
    -1 and their neighbours at 0; with no hazards it is the width+height
    sentinel.  Reward is +1 on the goal cell and -0.01 per step elsewhere.
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
    transition = np.zeros((n_states, n_u, n_a), dtype=np.int64)
    reward = np.full((n_states, n_u, n_a), -0.01)
    constraint = np.empty(n_states)
    goal = _cell_index(gx, gy, w)

    def clip(cx, cy):
        return min(max(cx, 0), w - 1), min(max(cy, 0), h - 1)

    for cy in range(h):
        for cx in range(w):
            x = _cell_index(cx, cy, w)
            if hazards:
                dist = min(max(abs(cx - hx), abs(cy - hy)) for hx, hy in hazards)
                constraint[x] = dist - 1
            else:
                constraint[x] = w + h
            for u, (dux, duy) in enumerate(_MOVES):
                mx, my = clip(cx + dux, cy + duy)
                for a, (dax, day) in enumerate(_MOVES):
                    nx, ny = clip(mx + dax * params.adversary_strength,
                                  my + day * params.adversary_strength)
                    transition[x, u, a] = _cell_index(nx, ny, w)
            if x == goal:
                reward[x, :, :] = 1.0

    return GameSpec(n_states, n_u, n_a, transition, reward, constraint,
                    gamma=params.gamma, gamma_h=params.gamma_h)
