"""Performance (reward) backups on the game and on its induced restriction.

Tables have shape (n_states, n_u, n_a) in discounted reward units.  Two
worst-case evaluations of a mixed protagonist exist and differ:

* ``policy_backup`` lets the adversary react to the realized protagonist
  action, taking min over a' separately for each supported u'.
* ``minimax_policy_backup`` models simultaneous play: the adversary picks one
  response to the whole mixture, min over a' of the expectation over u'.

The constrained backup restricts member states to their admissible actions
and backs up the matrix-game value of the successor state, which is the
fixed point the dual iteration converges to.

The restricted game lets each state play the rows of a mask: member states
their admissible actions, every other state one fixed row, so its fixed
point is the constrained one on member states of a closed set.  Its table
is r + gamma * w[x'] for a state vector w.  ``restricted_games`` solves its
matrix games on such a table in one LP batch, ``evaluate_pair`` gives the
state values of the batch's pair of mixed strategies (exactly, by the
safety side's pointer doubling, when both are pure at every state; by
sweeps otherwise), and ``newton_step`` turns them into one safeguarded
Newton step.  The dual iteration takes one
such step per outer step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from . import matrix_game
from .errors import NonMemberSuccessor
from .game import GameSpec, MixedPolicy
from .safety import InvariantSet, chain_values, fixed_point


def pair_backup(q: np.ndarray, spec: GameSpec,
                pi: MixedPolicy, mu: MixedPolicy) -> np.ndarray:
    """Expected one-step backup for a fixed pair of mixed policies."""
    cont = np.einsum("xu,xa,xua->x", pi.prob, mu.prob, q)
    return spec.reward + spec.gamma * cont[spec.transition]


def policy_backup(q: np.ndarray, spec: GameSpec, pi: MixedPolicy) -> np.ndarray:
    """Worst-case backup with the min over adversary actions inside the
    mixture: each supported action meets its own worst response."""
    cont = (pi.prob * q.min(axis=2)).sum(axis=1)
    return spec.reward + spec.gamma * cont[spec.transition]


def minimax_policy_backup(q: np.ndarray, spec: GameSpec, pi: MixedPolicy) -> np.ndarray:
    """Worst-case backup under simultaneous play: one adversary response to
    the whole mixture."""
    return spec.reward + spec.gamma * state_value(q, pi)[spec.transition]


def constrained_backup(q: np.ndarray, spec: GameSpec, inv: InvariantSet) -> np.ndarray:
    """Backup on the induced game: member states, admissible actions only,
    backing up the values of the member states' matrix games over their
    admissible rows, all in one ``matrix_game.solve_all`` batch.

    Rows outside the member set (and inadmissible rows at member states) are
    left untouched; their values are owned by the safety side.  Raises
    NonMemberSuccessor if an admissible action can leave the member set,
    which signals a stale invariant set.
    """
    values = matrix_game.solve_all(q, inv.admissible)[1]
    cells = inv.admissible[:, :, None]
    leaves = cells & ~inv.member[spec.transition]
    if leaves.any():
        x, u, a = np.argwhere(leaves)[0]
        raise NonMemberSuccessor(
            f"admissible action {u} at member state {x} reaches "
            f"non-member state {spec.transition[x, u, a]}")
    return np.where(cells, spec.reward + spec.gamma * values[spec.transition], q)


def evaluate_pair(spec: GameSpec, row: np.ndarray, column: np.ndarray,
                  v0: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """State values of a fixed pair of mixed strategies, row (n_states, n_u)
    against column (n_states, n_a).

    When every state's pair is a point mass (u*, a*), each state has one
    successor x' = f(x, u*, a*) and its value obeys v(x) = r(x, u*, a*) +
    gamma * v(x'): ``safety.chain_values`` solves that exactly, with no
    sweeps.  Otherwise ``fixed_point`` sweeps from ``v0``, each
    v(x) <- sum over u, a of row(x, u) * column(x, a) * (reward + gamma *
    v(x')) over the pair's support, stopped at a move of at most ``tol`` or
    where rounding stalls them.  Raises MaxIterExceeded after ``max_iter``
    sweeps without stopping, and ValueError for a ``tol`` that is not
    positive or a negative ``max_iter``, whichever path the pair takes.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    weight = row[:, :, None] * column[:, None, :]
    x, u, a = np.nonzero(weight)
    weight = weight[x, u, a]
    successor = spec.transition[x, u, a]
    n = spec.n_states
    if np.array_equal(x, np.arange(n)) and (weight == 1.0).all():
        return chain_values(np.full(n, np.inf), spec.reward[x, u, a],
                            successor, spec.gamma)
    gain = np.bincount(x, weight * spec.reward[x, u, a], minlength=n)
    return fixed_point(
        lambda v: gain + spec.gamma * np.bincount(x, weight * v[successor],
                                                  minlength=n),
        v0, tol, max_iter).q


class RestrictedGames(NamedTuple):
    """A restricted game's table and one LP batch of its matrix games."""

    q: np.ndarray        # r + gamma * w[x'] for the state vector w
    row: np.ndarray      # row strategies, (n_states, n_u)
    column: np.ndarray   # column strategies, (n_states, n_a)
    values: np.ndarray   # per-state game values
    residual: float      # ||r + gamma * values[x'] - q|| over all cells


def restricted_games(spec: GameSpec, w: np.ndarray,
                     rows: np.ndarray) -> RestrictedGames:
    """The table r + gamma * w[x'], its matrix games over the row mask
    ``rows`` in one ``matrix_game.solve_all`` batch, and the table's
    residual under the restricted backup q <- r + gamma * value[x']."""
    q = spec.reward + spec.gamma * w[spec.transition]
    s, values, t = matrix_game.solve_all(q, rows)
    change = spec.reward + spec.gamma * values[spec.transition]
    change -= q
    return RestrictedGames(q, s, t, values,
                           float(np.abs(change, out=change).max()))


def newton_step(spec: GameSpec, rows: np.ndarray, w: np.ndarray,
                games: RestrictedGames, tol: float, max_iter: int,
                first: bool) -> Tuple[np.ndarray, float, RestrictedGames]:
    """One safeguarded Newton step on the restricted game ``rows`` from the
    state vector ``w``, whose table's LP batch is ``games`` (its row mask
    may be an earlier one).

    The step of Pollatschek and Avi-Itzhak (1969) evaluates the pair of row
    and column strategies of ``games`` by ``evaluate_pair``: a pure pair
    exactly, a mixed one by sweeps from ``w`` to a move of max(tol, 1e-3 *
    residual), or of tol on the ``first`` step, from w = 0, where on a game
    without choices that one evaluation is the answer; sweeps also stop
    where rounding stalls them.  The first
    step is taken in full: the zero start is no table to protect.  After
    it, a safeguard in the spirit of Filar and Tolwinski (1991) accepts a
    step only when its residual is at most gamma times that of ``games``:
    its length halves from 1 while it is at least 1 - gamma, and a shorter
    step promises less than the restricted backup w <- value, which always
    qualifies.  Returns the new state vector, the accepted step length (0
    for the backup) and its ``restricted_games``.
    """
    stop = tol if first else max(tol, 1e-3 * games.residual)
    target = evaluate_pair(spec, games.row, games.column, w, stop, max_iter)
    length = 1.0
    while length >= 1.0 - spec.gamma:
        trial = w + length * (target - w)
        result = restricted_games(spec, trial, rows)
        if first or result.residual <= spec.gamma * games.residual:
            return trial, length, result
        length /= 2
    return games.values, 0.0, restricted_games(spec, games.values, rows)


def state_value(q: np.ndarray, pi: MixedPolicy) -> np.ndarray:
    """Per-state value of a mixed policy under simultaneous play:
    min over a of the expectation over u of q(x, u, a)."""
    return np.einsum("xu,xua->xa", pi.prob, q).min(axis=1)
