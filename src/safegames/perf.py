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
"""

from __future__ import annotations

from typing import Callable, Optional

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
    cont = np.einsum("xu,xua->xa", pi.prob, q).min(axis=1)
    return spec.reward + spec.gamma * cont[spec.transition]


def constrained_backup(q: np.ndarray, spec: GameSpec, inv: InvariantSet) -> np.ndarray:
    """Backup on the induced game: member states, admissible actions only.

    Rows outside the member set (and inadmissible rows at member states) are
    left untouched; their values are owned by the safety side.  Raises
    NonMemberSuccessor if an admissible action can leave the member set,
    which signals a stale invariant set.
    """
    values = np.zeros(spec.n_states)
    members = np.flatnonzero(inv.member)
    for x in members:
        sol = matrix_game.solve(matrix_game.restricted(q[x], inv.admissible[x]))
        values[x] = sol.value

    out = q.copy()
    for x in members:
        for u in inv.admissible_actions(x):
            succ = spec.transition[x, u, :]
            if not inv.member[succ].all():
                bad = succ[~inv.member[succ]][0]
                raise NonMemberSuccessor(
                    f"admissible action {u} at member state {x} reaches "
                    f"non-member state {bad}")
            out[x, u, :] = spec.reward[x, u, :] + spec.gamma * values[succ]
    return out


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
    """Per-state worst-case value of a mixed policy, computed on demand."""
    return (pi.prob * q.min(axis=2)).sum(axis=1)
