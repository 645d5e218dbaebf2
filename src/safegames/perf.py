"""Performance (reward) backups on the game and on its induced restriction.

Tables have shape (n_states, n_u, n_a) in discounted reward units.  Two
worst-case evaluations of a mixed protagonist exist and differ:

* ``policy_backup`` lets the adversary react to the realized protagonist
  action, taking min over a' separately for each supported u'.
* ``minimax_policy_backup`` models simultaneous play: the adversary picks one
  response to the whole mixture, min over a' of the expectation over u'.

The constrained backup restricts member states to their admissible actions
and backs up the matrix-game value of the successor state, which is the
fixed point the dual iteration converges to.  ``evaluate_pair`` gives the
state values of a fixed pair of mixed strategies, the dual iteration's
Newton step.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from . import matrix_game
from .errors import NonMemberSuccessor
from .game import GameSpec, MixedPolicy
from .safety import DEFAULT_MAX_ITER, DEFAULT_TOL, FixedPointResult, InvariantSet, fixed_point


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


def member_games(q: np.ndarray,
                 inv: InvariantSet) -> Tuple[np.ndarray, np.ndarray]:
    """Matrix game over the admissible rows at each member state, all in
    one ``matrix_game.solve_all`` batch.

    Returns the per-state optimal strategy and value: the LP solution on
    member states, zero strategy rows and NaN values elsewhere.
    """
    return matrix_game.solve_all(q, inv.admissible & inv.member[:, None])[:2]


def constrained_backup(q: np.ndarray, spec: GameSpec, inv: InvariantSet) -> np.ndarray:
    """Backup on the induced game: member states, admissible actions only.

    Rows outside the member set (and inadmissible rows at member states) are
    left untouched; their values are owned by the safety side.  Raises
    NonMemberSuccessor if an admissible action can leave the member set,
    which signals a stale invariant set.
    """
    _, values = member_games(q, inv)
    cells = (inv.member[:, None] & inv.admissible)[:, :, None]
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
    against column (n_states, n_a), by ``fixed_point`` sweeps from ``v0``.

    Each sweep is v(x) <- sum over u, a of row(x, u) * column(x, a) *
    (reward + gamma * v(x')), taken over the pair's support only.  Sweeps
    stop once one moves v by at most ``tol``, or by no less than the sweep
    before it: a contraction shrinks every move until rounding stalls it,
    and the stalled sweep is not taken.  Raises MaxIterExceeded after
    ``max_iter`` sweeps without stopping.
    """
    weight = row[:, :, None] * column[:, None, :]
    x, u, a = np.nonzero(weight)
    weight = weight[x, u, a]
    successor = spec.transition[x, u, a]
    n = spec.n_states
    gain = np.bincount(x, weight * spec.reward[x, u, a], minlength=n)
    last = np.inf

    def sweep(v):
        nonlocal last
        nxt = gain + spec.gamma * np.bincount(x, weight * v[successor],
                                              minlength=n)
        move = float(np.abs(nxt - v).max())
        if move >= last:
            return v
        last = move
        return nxt

    return fixed_point(sweep, v0, spec.gamma, tol, max_iter).q


def solve(spec: GameSpec, backup: Callable[..., np.ndarray], *args,
          tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
          q0: Optional[np.ndarray] = None) -> FixedPointResult:
    """Fixed point of ``backup(q, spec, *args)`` at discount ``gamma``,
    starting from ``q0`` (zeros by default).

    For example ``solve(spec, minimax_policy_backup, pi)`` evaluates a mixed
    policy under simultaneous play and ``solve(spec, constrained_backup,
    inv)`` is the constrained fixed point on an invariant set.
    """
    if q0 is None:
        q0 = np.zeros(spec.shape)
    return fixed_point(lambda q: backup(q, spec, *args), q0, spec.gamma,
                       tol, max_iter)


def state_value(q: np.ndarray, pi: MixedPolicy) -> np.ndarray:
    """Per-state value of a mixed policy under simultaneous play:
    min over a of the expectation over u of q(x, u, a)."""
    return np.einsum("xu,xua->xa", pi.prob, q).min(axis=1)
