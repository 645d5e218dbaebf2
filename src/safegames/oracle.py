"""Independent brute-force verifiers for the solver's claims.

Everything here recomputes values from first principles: exact undiscounted
trajectory minima, exhaustive enumeration over deterministic policy pairs,
standalone discounted value iteration, Hoffman-Karp strategy iteration on
the induced game, and set iteration for the exact viability kernel.  These
functions share the game data model with the engines but none of their
backup code; they trust its checks, among them that an ``InvariantSet``'s
members are exactly its states with an admissible action.
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
INDUCED_MAX_ITER = 1_000  # strategy iterations of ``solve_induced_game``


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
    """Solve the restricted game from scratch by strategy iteration.

    Builds the induced game (member states, admissible rows) explicitly and
    runs the strategy iteration of Hoffman and Karp (1966).  Each iteration
    solves all member games at the current member values in one
    ``matrix_game.solve_all`` batch, whose row strategies s the protagonist
    then fixes; the new values are those of s against the adversary's exact
    best response (``_best_response``).  From the second iteration on these
    values rise in exact arithmetic, so the iterations stop without taking
    the new values once one falls by more than ``floor``, 16 machine
    epsilons times the largest |value|, and otherwise once none moves by
    more than ``tol`` or ``floor``.  Only the admissible rows (all at member
    states) are meaningful in the returned table; other cells are zero.
    Raises NonMemberSuccessor, naming the first exit
    ``find_invariance_violations`` reports, when the set is not closed
    under its admissible actions, and MaxIterExceeded after
    ``INDUCED_MAX_ITER`` iterations without stopping.
    """
    violations, _ = find_invariance_violations(spec, inv)
    if violations:
        x, u, _a, bad = violations[0]
        raise NonMemberSuccessor(
            f"admissible action {u} at member state {x} reaches "
            f"non-member state {bad}")

    members = np.flatnonzero(inv.member)
    admissible = inv.admissible[members]
    reward = spec.reward[members]
    # member-local successors; inadmissible rows, which may leave, get 0
    local = np.where(admissible[:, :, None],
                     (np.cumsum(inv.member) - 1)[spec.transition[members]], 0)
    values, response = np.zeros(members.size), np.zeros(members.size, int)
    for it in range(1, INDUCED_MAX_ITER + 1):
        s = matrix_game.solve_all(reward + spec.gamma * values[local],
                                  admissible)[0]
        new_values, response = _best_response(s, reward, local, spec.gamma,
                                               response)
        floor = _floor(new_values)
        move = new_values - values
        residual = float(np.abs(move).max(initial=0))
        if it > 1 and move.min() < -floor:
            break
        values = new_values
        if residual <= max(tol, floor):
            break
    else:
        raise MaxIterExceeded(
            f"induced game residual {residual:.3e} after {INDUCED_MAX_ITER} "
            "iterations", residual=residual, iterations=INDUCED_MAX_ITER)

    full = np.zeros(spec.n_states)
    full[members] = values
    return np.where(inv.admissible[:, :, None],
                    spec.reward + spec.gamma * full[spec.transition], 0.0)


def _floor(values: np.ndarray) -> float:
    """16 machine epsilons times the largest |value|: moves below it are
    rounding."""
    return 16 * np.finfo(float).eps * float(np.abs(values).max(initial=0))


def _best_response(s: np.ndarray, reward: np.ndarray, local: np.ndarray,
                   gamma: float, response: np.ndarray):
    """The minimizing adversary's exact best response to the row strategies
    s (m, n_u) on the member games of ``reward`` and member-local
    successors ``local`` (m, n_u, n_a), by policy iteration from
    ``response``.  Each evaluation is one dense solve of
    (I - gamma * P) v = c, with the response's transitions P built by one
    ``np.bincount``; then each state switches when its best column improves
    on its response by more than the values' ``_floor`` (a strict
    improvement alone can cycle on rounding).  Returns the values and the
    response; raises MaxIterExceeded after ``INDUCED_MAX_ITER`` evaluations
    without settling."""
    rows = np.arange(s.shape[0])
    cost = np.einsum("xu,xua->xa", s, reward)
    for _ in range(INDUCED_MAX_ITER):
        cell = rows[:, None] * rows.size + local[rows, :, response]
        P = np.bincount(cell.ravel(), s.ravel(), minlength=rows.size ** 2)
        values = np.linalg.solve(
            np.eye(rows.size) - gamma * P.reshape(rows.size, rows.size),
            cost[rows, response])
        q = cost + gamma * np.einsum("xu,xua->xa", s, values[local])
        best = q.argmin(axis=1)
        switch = q[rows, best] < q[rows, response] - _floor(values)
        if not switch.any():
            return values, response
        response = np.where(switch, best, response)
    raise MaxIterExceeded(
        f"adversary best response still switching after {INDUCED_MAX_ITER} "
        "policy iterations", iterations=INDUCED_MAX_ITER)


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
