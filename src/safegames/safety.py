"""Safety backups, their exact fixed points, and robust invariant set extraction.

A safety table q has shape (n_states, n_u, n_a) in constraint units.  Each
backup discounts toward the running minimum of the constraint function:

    (1 - gamma_h) * h(x) + gamma_h * min(h(x), continuation value at x')

with x' = transition[x, u, a].  All three backups are monotone sup-norm
contractions with modulus gamma_h, so a table that one backup moves by r is
within gamma_h * r / (1 - gamma_h) of the fixed point.

Policies are evaluated at the successor state: the continuation value at x'
uses pi_h(x') and mu_h(x').

``solve`` returns the fixed points of ``policy_backup`` and
``optimal_backup`` exactly instead of iterating a backup.  With
deterministic policies of both players fixed, every state x has one
successor g(x) and its value obeys v(x) = min(h(x), (1 - gamma_h) h(x) +
gamma_h v(g(x))).  Maps y -> min(A, B + c y) compose into maps of the same
form, so pointer doubling (``chain_values``) evaluates every state in about
log2(37 / (1 - gamma_h)) vector steps (16 at gamma_h = 0.999).  The task
side's pure strategy pairs use the same kernel with A = +inf.  The
bit-exact finish after it costs more: one pass per orbit step on which a
bit still changes.  A max-min solve needed at most 13 such passes per
evaluation on a 300-state random game at gamma_h = 0.999, 12 on the 32x32
push grid (gamma_h = 0.99) and 8,744 on a 20,000-state corridor.  On top
of it ``solve(spec, pi_h)`` runs the adversary's policy iteration, and
``policy_iteration`` the protagonist's around it (Hoffman and Karp, 1966).
``solve(spec)`` returns that iteration's last table and ``dpi.run`` takes
its steps, so the two share every bit.  No solve is warm-started.
``fixed_point`` is plain value iteration of any contraction, stopped at a
tolerance or where rounding stalls it; the task side's evaluation of a
mixed strategy pair (``perf.evaluate_pair``) uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

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
    residual: float      # sup-norm move of the last sweep
    iterations: int      # sweeps, the stalled one included


def fixed_point(op: Callable[[np.ndarray], np.ndarray], q0: np.ndarray,
                tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> FixedPointResult:
    """Iterate a sup-norm contraction to a fixed point.

    Sweeps stop once one moves q by at most ``tol``, or by no less than the
    sweep before it: a contraction shrinks every move until rounding stalls
    it.  The stalled sweep counts in ``iterations`` and its move is the
    ``residual``, but its result is not taken.  Raises MaxIterExceeded
    after ``max_iter`` sweeps without stopping (typically the discount is
    too close to 1 for the budget), and ValueError for a ``tol`` that is not
    positive or a negative ``max_iter``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    q = np.asarray(q0, dtype=np.float64)
    last = np.inf
    for it in range(1, max_iter + 1):
        q_next = op(q)
        residual = float(np.abs(q_next - q).max())
        if residual >= last:
            return FixedPointResult(q, residual, it)
        if residual <= tol:
            return FixedPointResult(q_next, residual, it)
        q, last = q_next, residual
    raise MaxIterExceeded(
        f"residual {last:.3e} > tol {tol:.3e} after {max_iter} sweeps",
        residual=last, iterations=max_iter)


# Doubling stops once the discount left on the remaining tail is below
# double rounding.
_ROUNDING = 2.0 ** -53


def chain_values(cap: np.ndarray, gain: np.ndarray, succ: np.ndarray,
                 discount: float) -> np.ndarray:
    """Values v of the chain v(x) = min(cap(x), gain(x) + discount *
    v(succ(x))), by pointer doubling; ``cap`` may be +inf.

    Each pass composes every state's map y -> min(a, b + c y) with its
    successor's, doubling the horizon covered; the tail past the last
    horizon carries weight below double rounding and is dropped.
    """
    a, b, g, c = cap, gain, succ, discount
    while c > _ROUNDING:
        a, b, g, c = np.minimum(a, b + c * a[g]), b + c * b[g], g[g], c * c
    return np.minimum(a, b)


def _evaluate(spec: GameSpec, succ: np.ndarray) -> np.ndarray:
    """State values of a fixed policy pair whose successor map is ``succ``:
    ``chain_values`` capped at h, then a bit-exact finish."""
    h = spec.constraint
    tail = (1.0 - spec.gamma_h) * h
    v = chain_values(h, tail, succ, spec.gamma_h)
    # Doubling rounds differently from the backup.  Finish with the backup's
    # own one-step map until it repeats bit for bit (a change moves one orbit
    # step per pass), so the table is a float fixed point.  Membership needs
    # that: kernel states can hold the value 0 exactly, and a value a few
    # ulps below it would drop them from the set.
    for _ in range(spec.n_states):
        step = tail + spec.gamma_h * np.minimum(h, v[succ])
        if np.array_equal(step, v):
            break
        v = step
    return v


def _greedy(values: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Row-wise argmax of ``values`` (lowest index on ties) where it strictly
    beats the ``current`` action, and ``current`` elsewhere."""
    idx = np.arange(values.shape[0])
    best = values.argmax(axis=1)
    return np.where(values[idx, best] > values[idx, current], best, current)


def solve(spec: GameSpec, pi_h: Optional[DetPolicy] = None,
          max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Exact safety table at discount ``gamma_h``: with ``pi_h`` the fixed
    point of ``policy_backup``, by adversary policy iteration, and without
    it that of ``optimal_backup``, the last table of ``policy_iteration``.
    Actions switch only on strict improvement, to the lowest best index, so
    runs are bit-reproducible.  More than ``max_iter`` improvements of
    either player raise MaxIterExceeded, whose residual is the last table's
    move under one more backup; 0 allows none, and a negative ``max_iter``
    raises ValueError.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if pi_h is None:
        for _, q in policy_iteration(spec, max_iter):
            pass
        return q
    idx, prot = np.arange(spec.n_states), pi_h.action
    adv = np.zeros(spec.n_states, dtype=np.int64)
    for _ in range(max_iter + 1):
        q = _backup(_evaluate(spec, spec.transition[idx, prot, adv]), spec)
        response = _greedy(-q[idx, prot], adv)
        if np.array_equal(response, adv):
            return q
        adv = response
    residual = float(np.abs(policy_backup(q, spec, pi_h) - q).max())
    raise MaxIterExceeded(f"residual {residual:.3e} after {max_iter} "
                          "adversary improvements", residual, max_iter)


def policy_iteration(spec: GameSpec, max_iter: int = DEFAULT_MAX_ITER
                     ) -> Iterator[Tuple[DetPolicy, np.ndarray]]:
    """Yield ``(pi_h, solve(spec, pi_h))`` from the all-zeros policy on,
    each policy ``improve_policy`` of the last, up to the first greedy on
    its own table, whose table is the max-min one.  Raises MaxIterExceeded
    after ``max_iter`` improvements, and ValueError on the first step when
    ``max_iter`` is negative."""
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    pi_h = DetPolicy.constant(spec.n_states, 0, PROTAGONIST)
    for _ in range(max_iter + 1):
        q = solve(spec, pi_h, max_iter)
        yield pi_h, q
        improved = improve_policy(q, pi_h)
        if np.array_equal(improved.action, pi_h.action):
            return
        pi_h = improved
    residual = float(np.abs(optimal_backup(q, spec) - q).max())
    raise MaxIterExceeded(f"residual {residual:.3e} after {max_iter} "
                          "protagonist improvements", residual, max_iter)


def improve_policy(q: np.ndarray, pi_h: DetPolicy) -> DetPolicy:
    """Greedy improvement of ``pi_h`` on a safety table: a state switches to
    argmax_u min_a q(x, u, a), lowest index on ties, only when that is
    strictly better than its current action, so repeated improvement cannot
    cycle between equally valued actions.
    """
    return DetPolicy(_greedy(q.min(axis=2), pi_h.action), PROTAGONIST)


@dataclass(frozen=True)
class InvariantSet:
    """Membership mask plus per-state admissible protagonist actions.

    ``admissible[x, u]`` holds iff action u keeps the worst-case safety value
    at or above the extraction threshold and every adversary reply inside
    the set; ``member[x]`` holds iff some action is admissible, so
    ``admissible`` is the induced game's row mask.  Construction raises
    ValueError otherwise.
    """

    member: np.ndarray      # (n_states,) bool
    admissible: np.ndarray  # (n_states, n_u) bool

    def __post_init__(self):
        if not np.array_equal(self.member, self.admissible.any(axis=1)):
            raise ValueError("members must be exactly the states with an "
                             "admissible action")

    def member_count(self) -> int:
        return int(self.member.sum())


def extract_invariant_set(q: np.ndarray, spec: GameSpec,
                          threshold: float = 0.0) -> InvariantSet:
    """Largest set closed under its own admissible actions inside the sign
    test ``min_a q(x, u, a) >= threshold``.

    The sign test alone can admit an action whose successor fails it: a
    large h(x) keeps (1 - gamma_h) h(x) + gamma_h v(x') nonnegative over a
    small negative v(x').  Pruning such actions, and then states left
    without one, until nothing changes closes the set.  Every cell with
    h(x) < 0 is negative, so at threshold 0 a closed set lies inside the
    viability kernel; on a float fixed point of the max-min backup every
    kernel state keeps a nonnegative action that stays in the kernel, so
    the set is the kernel at every gamma_h.
    """
    admissible = q.min(axis=2) >= threshold
    member = admissible.any(axis=1)
    while True:
        admissible &= member[spec.transition].all(axis=2)
        closed = admissible.any(axis=1)
        if np.array_equal(closed, member):
            return InvariantSet(member=member, admissible=admissible)
        member = closed


def state_value(q: np.ndarray) -> np.ndarray:
    """Per-state safety value max_u min_a q(x, u, a)."""
    return q.min(axis=2).max(axis=1)
