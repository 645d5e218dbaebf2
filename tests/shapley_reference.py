"""Shapley iteration on the induced game: the reference for the oracle.

This is the loop ``oracle.solve_induced_game`` ran before it took the
restricted game's fixed point by strategy iteration.  It shares nothing
with that iteration but ``matrix_game.solve_all``, so the tests keep it to
draw the oracle against.  It skips the oracle's successor check: callers
pass closed sets.
"""

import numpy as np

from safegames import matrix_game
from safegames.errors import MaxIterExceeded


def solve_induced_game(spec, inv, tol=1e-10, max_iter=100_000):
    """The induced game's task table by Shapley iteration from zero values.

    Each sweep solves all member games in one ``matrix_game.solve_all``
    batch.  The sweeps stop once one moves the values by at most ``tol``,
    or by no less than the sweep before it: the moves of a contraction
    shrink until rounding stalls them, and the stalled sweep is not taken.
    Cells off the admissible rows are zero.  Raises MaxIterExceeded after
    ``max_iter`` sweeps without stopping.
    """
    members = np.flatnonzero(inv.member)
    admissible = inv.admissible[members]
    reward, successors = spec.reward[members], spec.transition[members]
    values = np.zeros(spec.n_states)
    last = np.inf
    for _ in range(max_iter):
        new_values = values.copy()
        payoff = reward + spec.gamma * values[successors]
        new_values[members] = matrix_game.solve_all(payoff, admissible)[1]
        residual = float(np.abs(new_values - values).max())
        if residual >= last:
            break
        values, last = new_values, residual
        if residual <= tol:
            break
    else:
        raise MaxIterExceeded(
            f"induced game residual {residual:.3e} after {max_iter} sweeps",
            residual=residual, iterations=max_iter)
    return np.where(inv.admissible[:, :, None],
                    spec.reward + spec.gamma * values[spec.transition], 0.0)
