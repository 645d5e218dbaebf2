"""Safety backups, their fixed points, and robust invariant set extraction.

A safety table q has shape (n_states, n_u, n_a) in constraint units.  Each
backup discounts toward the running minimum of the constraint function:

    (1 - gamma_h) * h(x) + gamma_h * min(h(x), continuation value at x')

with x' = transition[x, u, a].  All three backups are monotone sup-norm
contractions with modulus gamma_h, so fixed-point iteration converges
geometrically and the distance to the true fixed point is bounded by
gamma_h * residual / (1 - gamma_h).

Policies are evaluated at the successor state: the continuation value at x'
uses pi_h(x') and mu_h(x').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MaxIterExceeded
from .game import PROTAGONIST, DetPolicy, GameSpec

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000


def _backup(cont: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Shared tail of every safety backup, given the continuation value of
    each state: discount toward the running minimum of h at x' = f(x, u, a)."""
    h = spec.constraint[:, None, None]
    w = cont[spec.transition]
    return (1.0 - spec.gamma_h) * h + spec.gamma_h * np.minimum(h, w)


def pair_backup(q: np.ndarray, spec: GameSpec,
                pi_h: DetPolicy, mu_h: DetPolicy) -> np.ndarray:
    """Backup for a fixed protagonist/adversary pair."""
    idx = np.arange(spec.n_states)
    cont = q[idx, pi_h.action, mu_h.action]  # value at (x', pi(x'), mu(x'))
    return _backup(cont, spec)


def policy_backup(q: np.ndarray, spec: GameSpec, pi_h: DetPolicy) -> np.ndarray:
    """Backup for a fixed protagonist against a worst-case adversary."""
    idx = np.arange(spec.n_states)
    return _backup(q[idx, pi_h.action, :].min(axis=1), spec)


def optimal_backup(q: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Max-min backup; its fixed point scores the best achievable safety."""
    return _backup(q.min(axis=2).max(axis=1), spec)


@dataclass(frozen=True)
class FixedPointResult:
    q: np.ndarray
    residual: float      # sup-norm of the last update
    iterations: int
    error_bound: float   # guaranteed sup-norm distance to the fixed point


def fixed_point(op: Callable[[np.ndarray], np.ndarray], q0: np.ndarray,
                gamma: float, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> FixedPointResult:
    """Iterate a sup-norm contraction to a fixed point.

    Raises MaxIterExceeded when the residual is still above ``tol`` after
    ``max_iter`` sweeps (typically the discount is too close to 1 for the
    budget).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    q = np.asarray(q0, dtype=np.float64)
    residual = np.inf
    for it in range(1, max_iter + 1):
        q_next = op(q)
        residual = float(np.abs(q_next - q).max())
        q = q_next
        if residual <= tol:
            bound = gamma * residual / (1.0 - gamma)
            return FixedPointResult(q, residual, it, bound)
    raise MaxIterExceeded(
        f"residual {residual:.3e} > tol {tol:.3e} after {max_iter} sweeps",
        residual=residual, iterations=max_iter)


def solve(spec: GameSpec, backup: Callable[..., np.ndarray], *args,
          tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
          q0: Optional[np.ndarray] = None) -> FixedPointResult:
    """Fixed point of ``backup(q, spec, *args)`` at discount ``gamma_h``.

    ``q0`` warm-starts the iteration (zeros by default); successive
    evaluations inside a policy iteration loop start close to their fixed
    points.  For example ``solve(spec, optimal_backup)`` is the max-min
    safety table and ``solve(spec, policy_backup, pi_h)`` that of a
    deterministic protagonist.
    """
    if q0 is None:
        q0 = np.zeros(spec.shape)
    return fixed_point(lambda q: backup(q, spec, *args), q0, spec.gamma_h,
                       tol, max_iter)


def improve_policy(q: np.ndarray) -> DetPolicy:
    """Greedy protagonist for a safety table: argmax_u min_a q(x, u, a).

    Ties break toward the lowest action index so runs are bit-reproducible.
    """
    return DetPolicy(q.min(axis=2).argmax(axis=1), PROTAGONIST)


@dataclass(frozen=True)
class InvariantSet:
    """Membership mask plus per-state admissible protagonist actions.

    ``member[x]`` holds iff some action keeps the worst-case safety value at
    or above ``threshold``; ``admissible[x, u]`` marks exactly those actions.
    ``ambiguous[x]`` flags states whose classification is within the
    certified distance-to-fixed-point bound of the threshold, where the
    discounted sign cannot be trusted.
    """

    member: np.ndarray      # (n_states,) bool
    admissible: np.ndarray  # (n_states, n_u) bool
    threshold: float = 0.0
    ambiguous: np.ndarray = None  # (n_states,) bool

    def __post_init__(self):
        if self.ambiguous is None:
            object.__setattr__(self, "ambiguous",
                               np.zeros(self.member.shape, dtype=bool))

    def admissible_actions(self, x: int) -> np.ndarray:
        return np.flatnonzero(self.admissible[x])

    def member_count(self) -> int:
        return int(self.member.sum())


def extract_invariant_set(q: np.ndarray, threshold: float = 0.0,
                          value_error: float = 0.0) -> InvariantSet:
    """Classify states from a converged safety table.

    ``value_error`` is the solve's distance-to-fixed-point bound; states whose
    max-min value lies within 10x of it around the threshold are flagged
    boundary-ambiguous instead of being silently trusted.
    """
    row_min = q.min(axis=2)
    admissible = row_min >= threshold
    member = admissible.any(axis=1)
    maxmin = row_min.max(axis=1)
    ambiguous = np.abs(maxmin - threshold) < 10.0 * value_error
    return InvariantSet(member=member, admissible=admissible,
                        threshold=threshold, ambiguous=ambiguous)


def is_feasible(q: np.ndarray, threshold: float = 0.0) -> bool:
    """Whether any state at all can sustain safety: max_x max_u min_a q >= threshold."""
    return bool(q.min(axis=2).max() >= threshold)


def state_value(q: np.ndarray) -> np.ndarray:
    """Per-state safety value max_u min_a q(x, u, a)."""
    return q.min(axis=2).max(axis=1)
