"""Cell-by-cell push-grid generator: the reference for ``envs.gridworld``.

This is the loop the package used before ``envs.gridworld`` built its tables
with array operations.  The array build must return the same transition,
reward and constraint arrays, dtypes included, so the tests keep this copy
as the reference for that claim.  It takes the same ``GridworldParams`` and
skips the parameter guards, which ``envs.gridworld`` keeps.
"""

import numpy as np

from safegames.envs import _MOVES


def gridworld_arrays(params):
    """Return ``(transition, reward, constraint)`` of the push grid."""
    w, h = params.width, params.height
    hazards = tuple(params.hazard_cells)
    gx, gy = params.goal_cell
    n_states = w * h
    n_u = n_a = len(_MOVES)
    transition = np.zeros((n_states, n_u, n_a), dtype=np.int64)
    reward = np.full((n_states, n_u, n_a), -0.01)
    constraint = np.empty(n_states)
    goal = gy * w + gx

    def clip(cx, cy):
        return min(max(cx, 0), w - 1), min(max(cy, 0), h - 1)

    for cy in range(h):
        for cx in range(w):
            x = cy * w + cx
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
                    transition[x, u, a] = ny * w + nx
            if x == goal:
                reward[x, :, :] = 1.0
    return transition, reward, constraint
