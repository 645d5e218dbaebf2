"""Property checks pitting the discounted engines against the oracles.

Each check returns a PropertyResult; ``run_all`` is what the ``verify``
command drives.  It runs the dual iteration (``dpi.run``, as ``solve``
runs it) once, and every check after the two operator checks judges that
one result.  Set inclusion and forward invariance take its invariant set.
Sign certification compares that set (or the ``--qh`` table's) with the
exact viability kernel of the undiscounted game
(``oracle.viability_kernel``).  Induced agreement takes its task table and
the oracle's from strategy iteration on its invariant set, and accepts a
gap that both tables' certified distances to the fixed point, and their
rounding, explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import dpi, oracle, perf, safety
from .errors import InfeasibleGame
from .game import ADVERSARY, PROTAGONIST, DetPolicy, GameSpec, MixedPolicy

_FLOAT_SLACK = 1e-12
_BLOCK = 16  # pairs per union game of the operator checks; bounds memory
INCLUSION_POLICIES = 10  # random protagonist policies of set inclusion
DEFAULT_PAIRS = 200  # random table pairs per operator check
AGREEMENT_ATOL = 1e-7  # induced agreement's floor on its tolerance


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_mixed(rng, n_states, n_actions):
    prob = rng.random((n_states, n_actions)) + 1e-3
    return MixedPolicy(prob / prob.sum(axis=1, keepdims=True))


def _block(spec: GameSpec, copies: int, rng, spread):
    """One game of ``copies`` disjoint copies of ``spec`` (copy b on states
    b*n .. (b+1)*n - 1), then q ~ U(-2, 2), d ~ U(``spread``), pi_h, mu_h,
    pi and mu on it, each drawn in one rng call for all copies."""
    n, n_u, n_a = spec.shape
    offset = n * np.arange(copies)[:, None, None, None]
    union = GameSpec(
        n * copies, n_u, n_a, (spec.transition + offset).reshape(-1, n_u, n_a),
        np.tile(spec.reward, (copies, 1, 1)), np.tile(spec.constraint, copies),
        spec.gamma, spec.gamma_h)
    return (union, rng.uniform(-2.0, 2.0, union.shape),
            rng.uniform(*spread, union.shape),
            DetPolicy(rng.integers(0, n_u, n * copies), PROTAGONIST),
            DetPolicy(rng.integers(0, n_a, n * copies), ADVERSARY),
            _random_mixed(rng, n * copies, n_u),
            _random_mixed(rng, n * copies, n_a))


def _pair_excess(spec, union, q, d, pi_h, mu_h, pi, mu, excess):
    """Each pair's ``excess(op, gamma, q, d, peak)`` for every engine backup
    (looked up in its module at call time) in a block of ``_block``, as a
    (pairs, operators) array; ``peak`` takes a table to each copy's max."""
    def peak(table):
        return table.reshape(-1, spec.reward.size).max(axis=1)
    return np.stack([excess(op, gamma, q, d, peak) for op, gamma in (
        (lambda q: safety.pair_backup(q, union, pi_h, mu_h), union.gamma_h),
        (lambda q: safety.policy_backup(q, union, pi_h), union.gamma_h),
        (lambda q: safety.optimal_backup(q, union), union.gamma_h),
        (lambda q: perf.pair_backup(q, union, pi, mu), union.gamma),
        (lambda q: perf.policy_backup(q, union, pi), union.gamma),
        (lambda q: perf.minimax_policy_backup(q, union, pi), union.gamma),
    )], axis=1)


def _operator_check(spec: GameSpec, pairs: int, seed: int, spread, excess):
    """Worst excess, count of pair-operator excesses above float slack and
    operator count over ``pairs`` draws, ``_BLOCK`` pairs to a block."""
    rng = np.random.default_rng(seed)
    worst, violations, n_ops = -np.inf, 0, 0
    for start in range(0, pairs, _BLOCK):
        e = _pair_excess(spec, *_block(spec, min(_BLOCK, pairs - start), rng,
                                       spread), excess)
        worst, n_ops = max(worst, float(e.max())), e.shape[1]
        violations += int((e > _FLOAT_SLACK).sum())
    return worst, violations, n_ops


def _contraction_excess(op, gamma, q1, q2, peak):
    return peak(np.abs(op(q1) - op(q2))) - gamma * peak(np.abs(q1 - q2))


def _monotonicity_drop(op, _gamma, q, d, peak):
    return peak(op(q - d) - op(q))


def contraction_check(spec: GameSpec, pairs: int = DEFAULT_PAIRS,
                      seed: int = 0) -> PropertyResult:
    """Every backup shrinks sup-norm distances by its discount factor."""
    worst, violations, n_ops = _operator_check(
        spec, pairs, seed, (-2.0, 2.0), _contraction_excess)
    return PropertyResult(
        "operator_contraction", violations == 0,
        f"{pairs} pairs x {n_ops} operators, worst excess {worst:.2e}")


def monotonicity_check(spec: GameSpec, pairs: int = DEFAULT_PAIRS,
                       seed: int = 0) -> PropertyResult:
    """q >= q' pointwise implies T(q) >= T(q') pointwise for every backup."""
    worst, violations, n_ops = _operator_check(
        spec, pairs, seed, (0.0, 1.0), _monotonicity_drop)
    return PropertyResult(
        "operator_monotonicity", violations == 0,
        f"{pairs} ordered pairs x {n_ops} operators, worst drop {worst:.2e}")


def set_inclusion_check(spec: GameSpec, optimal: safety.InvariantSet,
                        seed: int = 0) -> PropertyResult:
    """Policy sets nest inside the optimal set inside the constraint set."""
    rng = np.random.default_rng(seed)
    in_constraint = spec.constraint >= 0.0
    ok = bool((~optimal.member | in_constraint).all())
    for _ in range(INCLUSION_POLICIES):
        pi_h = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        q_pi = safety.solve(spec, pi_h)
        member = safety.extract_invariant_set(q_pi, spec).member
        ok = ok and bool((~member | optimal.member).all())
    return PropertyResult(
        "set_inclusion", ok,
        f"{INCLUSION_POLICIES} random policies nested inside the optimal set")


def sign_certification_check(spec: GameSpec,
                             inv: safety.InvariantSet) -> PropertyResult:
    """The member set must equal the exact undiscounted viability kernel,
    which set iteration finds independently of the safety table."""
    truth = oracle.viability_kernel(spec)
    mismatches = int((inv.member != truth).sum())
    return PropertyResult(
        "sign_certification", mismatches == 0,
        f"{inv.member_count()} members vs {int(truth.sum())} in the "
        f"set-iteration kernel, {mismatches} mismatches")


def forward_invariance_check(spec: GameSpec,
                             inv: safety.InvariantSet) -> PropertyResult:
    """No admissible action may leave the member set under any adversary."""
    violations, explored = oracle.find_invariance_violations(spec, inv)
    return PropertyResult(
        "forward_invariance", not violations,
        f"{explored} transitions explored, {len(violations)} exits")


def induced_agreement_check(spec: GameSpec,
                            engine: Optional[dpi.DpiResult],
                            tol: float = dpi.DpiConfig.tol) -> PropertyResult:
    """The task table ``solve`` ships must match the standalone induced-game
    solve on the member cells of its invariant set.

    ``engine`` is ``dpi.run``'s result, or None when it raised
    InfeasibleGame; its trace gives the table's constrained residual rho.
    One constrained backup of the oracle's table (strategy iteration to
    ``tol``) gives the oracle's rho, and the gamma-contraction puts a table
    within rho / (1 - gamma) of the fixed point, so the tables agree when
    their gap is at most max(``AGREEMENT_ATOL``, (rho_engine + rho_oracle
    + 8 * eps * M) / (1 - gamma)).

    The last term is the rounding of the two residuals, which are computed
    in doubles: one can read 0 while its table sits a few ulps off the
    fixed point.  Let M be the largest |oracle table| over admissible cells
    and eps the machine epsilon; rounding a number of magnitude at most 2M
    moves it by at most eps * M.  Each computed residual takes its backup
    r + gamma * value from two roundings (the product and the sum) and its
    difference from the table from one more, so it can read up to
    3 * eps * M below the exact one; the two residuals and the gap's own
    difference make seven roundings, and 8 * eps * M covers them.  With
    rewards in [0, 1) and gamma 0.95, M < 20 and it adds under 7.2e-13.
    """
    if engine is None:
        return PropertyResult("induced_agreement", True, "no member states")
    inv, trace = engine.invariant_set, engine.trace
    rho_engine = trace.final_constrained_residual
    independent = oracle.solve_induced_game(spec, inv, tol)
    rho_oracle = float(np.abs(perf.constrained_backup(independent, spec, inv)
                              - independent).max())
    cells = np.broadcast_to(inv.admissible[:, :, None], spec.shape)
    rounding = 8 * np.finfo(float).eps * float(
        np.abs(independent[cells]).max())
    bound = max(AGREEMENT_ATOL,
                (rho_engine + rho_oracle + rounding) / (1.0 - spec.gamma))
    gap = float(np.abs((engine.q - independent)[cells]).max())
    exhausted = ", budget exhausted" if trace.budget_exhausted else ""
    return PropertyResult(
        "induced_agreement", gap <= bound,
        f"max member-cell gap {gap:.2e} (tolerance {bound:.2e}); engine "
        f"{len(trace.steps)} outer steps{exhausted}, residual "
        f"{rho_engine:.2e}; oracle residual {rho_oracle:.2e}")


def run_all(spec: GameSpec, pairs: int = DEFAULT_PAIRS, seed: int = 0,
            q_h: Optional[np.ndarray] = None,
            tol: float = dpi.DpiConfig.tol) -> List[PropertyResult]:
    """Run every cross-check.  After the operator checks, ``dpi.run`` with
    ``solve``'s defaults and exit bound ``tol`` runs once; the set checks
    take its invariant set (empty when it raises InfeasibleGame), except
    that sign certification checks the set of ``q_h`` when it is given."""
    operators = [contraction_check(spec, pairs, seed),
                 monotonicity_check(spec, pairs, seed)]
    try:
        engine = dpi.run(spec, dpi.DpiConfig(tol=tol))
        inv = engine.invariant_set
    except InfeasibleGame:
        n = spec.n_states
        engine, inv = None, safety.InvariantSet(np.zeros(n, bool),
                                                np.zeros((n, spec.n_u), bool))
    certified = (inv if q_h is None else safety.extract_invariant_set(
        np.asarray(q_h, dtype=np.float64), spec))
    return operators + [
        set_inclusion_check(spec, inv, seed=seed),
        sign_certification_check(spec, certified),
        forward_invariance_check(spec, inv),
        induced_agreement_check(spec, engine, tol),
    ]
