"""Dense reference for the task side's pair evaluation.

A fixed pair of mixed strategies, row (n_states, n_u) against column
(n_states, n_a), moves state x to x' with probability P(x, x'), the mass of
the cells (u, a) with f(x, u, a) = x', and pays g(x), the expected reward.
Its state values solve the linear system (I - gamma P) v = g, which
``np.linalg.solve`` solves directly: no sweeps and no pointer doubling, so
it is independent of ``perf.evaluate_pair``.
"""

import numpy as np


def evaluate_pair(spec, row, column):
    weight = row[:, :, None] * column[:, None, :]
    n = spec.n_states
    moves = np.zeros((n, n))
    states = np.broadcast_to(np.arange(n)[:, None, None], spec.shape)
    np.add.at(moves, (states, spec.transition), weight)
    gain = (weight * spec.reward).sum(axis=(1, 2))
    return np.linalg.solve(np.eye(n) - spec.gamma * moves, gain)
