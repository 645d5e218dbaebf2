"""Independent brute-force verifiers for the solver's claims.

Everything here recomputes values from first principles: exact undiscounted
trajectory minima, exhaustive enumeration over deterministic policy pairs,
standalone discounted value iteration, Shapley-style iteration on the induced
game, and set iteration for the exact viability kernel.  These functions
share the game data model with the engines but none of their backup code;
they trust its checks, among them that an ``InvariantSet``'s members are
exactly its states with an admissible action.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

import numpy as np

from . import matrix_game
from .errors import BudgetExceeded, MaxIterExceeded, NonMemberSuccessor
from .game import DetPolicy, GameSpec
from .safety import InvariantSet

ENUM_BUDGET = 10_000_000
INDUCED_MAX_ITER = 100_000  # Shapley sweeps of ``solve_induced_game``


def trajectory_min_constraint(spec: GameSpec, x0: int, u0: int, a0: int,
                              pi_h: DetPolicy, mu_h: DetPolicy) -> float:
    """Exact infinite-horizon minimum of h along the rollout from (x0,u0,a0):
    h at x0, then the closed-loop orbit minimum from the first successor."""
    orbit_min = _closed_loop_orbit_min(spec, pi_h.action, mu_h.action)
    return float(min(spec.constraint[x0],
                     orbit_min[spec.transition[x0, u0, a0]]))


def _closed_loop_orbit_min(spec: GameSpec, prot: np.ndarray, adv: np.ndarray) -> np.ndarray:
    """min of h over the orbit from each state under a fixed policy pair.

    Sweeping w <- min(h, w[g]) n_states times covers every state the orbit
    can reach before it cycles.
    """
    idx = np.arange(spec.n_states)
    g = spec.transition[idx, prot, adv]
    h = spec.constraint
    w = h.copy()
    for _ in range(spec.n_states):
        w = np.minimum(h, w[g])
    return w


def enumerate_optimal_safety(spec: GameSpec, budget: int = ENUM_BUDGET) -> np.ndarray:
    """Exact undiscounted optimal safety table by full policy enumeration.

    For every cell, max over deterministic protagonists of min over
    deterministic adversaries of the trajectory minimum.  Deterministic
    policies suffice for these values, which is what licenses the
    enumeration.  Raises BudgetExceeded when |U|^|X| * |A|^|X| > budget.
    """
    n_pairs = (spec.n_u ** spec.n_states) * (spec.n_a ** spec.n_states)
    if n_pairs > budget:
        raise BudgetExceeded(
            f"{n_pairs} policy pairs exceed the budget of {budget}")

    h = spec.constraint[:, None, None]
    best = np.full(spec.shape, -np.inf)
    for prot in itertools.product(range(spec.n_u), repeat=spec.n_states):
        prot = np.array(prot, dtype=np.int64)
        worst = np.full(spec.shape, np.inf)
        for adv in itertools.product(range(spec.n_a), repeat=spec.n_states):
            adv = np.array(adv, dtype=np.int64)
            w = _closed_loop_orbit_min(spec, prot, adv)
            vals = np.minimum(h, w[spec.transition])
            np.minimum(worst, vals, out=worst)
        np.maximum(best, worst, out=best)
    return best


def discounted_sweep(spec: GameSpec, gammas: Iterable[float],
                     tol: float = 1e-10,
                     max_iter: int = 2_000_000) -> Dict[float, np.ndarray]:
    """Standalone value iteration of the max-min safety backup per discount.

    Used to certify that the discounted fixed points approach the exact
    undiscounted values as the discount goes to 1.
    """
    h = spec.constraint[:, None, None]
    out: Dict[float, np.ndarray] = {}
    for gamma_h in gammas:
        if not (0.0 < gamma_h < 1.0):
            raise ValueError("each discount must lie strictly inside (0, 1)")
        q = np.zeros(spec.shape)
        for it in range(1, max_iter + 1):
            cont = q.min(axis=2).max(axis=1)
            q_next = (1.0 - gamma_h) * h + gamma_h * np.minimum(h, cont[spec.transition])
            residual = float(np.abs(q_next - q).max())
            q = q_next
            if residual <= tol:
                break
        else:
            raise MaxIterExceeded(
                f"discount {gamma_h}: residual {residual:.3e} after {max_iter} sweeps",
                residual=residual, iterations=max_iter)
        out[float(gamma_h)] = q
    return out


def solve_induced_game(spec: GameSpec, inv: InvariantSet,
                       tol: float = 1e-10) -> np.ndarray:
    """Solve the restricted game from scratch by Shapley iteration.

    Builds the induced game (member states, admissible rows) explicitly and
    iterates per-state matrix-game values to a fixed point; each sweep
    solves all member games in one ``matrix_game.solve_all`` batch.  The
    sweeps stop once one moves the values by at most ``tol``, or by no less
    than the sweep before it: the moves of a contraction shrink until
    rounding stalls them, and the stalled sweep is not taken.  Only the
    admissible rows (all at member states) are meaningful in the returned
    table; other cells are zero.  Raises NonMemberSuccessor, naming the
    first exit ``find_invariance_violations`` reports, when the set is not
    closed under its admissible actions, and MaxIterExceeded after
    ``INDUCED_MAX_ITER`` sweeps without stopping.
    """
    violations, _ = find_invariance_violations(spec, inv)
    if violations:
        x, u, _a, bad = violations[0]
        raise NonMemberSuccessor(
            f"admissible action {u} at member state {x} reaches "
            f"non-member state {bad}")

    members = np.flatnonzero(inv.member)
    admissible = inv.admissible[members]
    reward, successors = spec.reward[members], spec.transition[members]
    values = np.zeros(spec.n_states)
    last = np.inf
    for it in range(1, INDUCED_MAX_ITER + 1):
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
            f"induced game residual {residual:.3e} after {INDUCED_MAX_ITER} "
            "sweeps", residual=residual, iterations=INDUCED_MAX_ITER)

    return np.where(inv.admissible[:, :, None],
                    spec.reward + spec.gamma * values[spec.transition], 0.0)


def viability_kernel(spec: GameSpec) -> np.ndarray:
    """Exact maximal robust invariant set by set iteration.

    Starting from the constraint set, repeatedly discard states with no
    action whose every adversary outcome stays inside; on a finite state
    space this stabilizes within n_states rounds and is exact for the
    undiscounted game, at any size.
    """
    safe = spec.constraint >= 0.0
    while True:
        stays = safe[spec.transition].all(axis=2).any(axis=1)
        keep = safe & stays
        if (keep == safe).all():
            return keep
        safe = keep


def find_invariance_violations(spec: GameSpec, inv: InvariantSet
                               ) -> Tuple[List[Tuple[int, int, int, int]], int]:
    """Exhaustive scan for exits from the member set.

    Checks every admissible protagonist action at every member state against
    every adversary action; a search that only walks through members reaches
    no other transition.  Returns the violating transitions (x, u, a,
    successor) in (x, u, a) order and ``explored``, the number of admissible
    transitions scanned.
    """
    exits = np.argwhere(inv.admissible[:, :, None]
                        & ~inv.member[spec.transition])
    violations = [(int(x), int(u), int(a), int(spec.transition[x, u, a]))
                  for x, u, a in exits]
    return violations, int(inv.admissible.sum()) * spec.n_a
