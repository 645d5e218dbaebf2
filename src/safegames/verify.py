"""Property checks pitting the discounted engines against the oracles.

Each check returns a PropertyResult; ``run_all`` is what the ``verify``
command drives.  Sign certification prefers the exhaustive policy
enumeration when the instance is within budget and falls back to the exact
set-iteration kernel otherwise (forcing enumeration on an oversized instance
raises BudgetExceeded).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import oracle, perf, safety
from .game import ADVERSARY, PROTAGONIST, DetPolicy, GameSpec, MixedPolicy

_FLOAT_SLACK = 1e-12
CERTIFICATION_GAMMA = 0.999


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_mixed(rng, n_states, n_actions):
    prob = rng.random((n_states, n_actions)) + 1e-3
    return MixedPolicy(prob / prob.sum(axis=1, keepdims=True))


def contraction_check(spec: GameSpec, pairs: int = 200, seed: int = 0) -> PropertyResult:
    """All five backups shrink sup-norm distances by their discount factor."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    violations = 0
    for _ in range(pairs):
        q1 = rng.uniform(-2.0, 2.0, spec.shape)
        q2 = rng.uniform(-2.0, 2.0, spec.shape)
        dist = np.abs(q1 - q2).max()
        pi_h = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu_h = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        pi = _random_mixed(rng, spec.n_states, spec.n_u)
        mu = _random_mixed(rng, spec.n_states, spec.n_a)
        checks = (
            (safety.pair_backup(q1, spec, pi_h, mu_h),
             safety.pair_backup(q2, spec, pi_h, mu_h), spec.gamma_h),
            (safety.policy_backup(q1, spec, pi_h),
             safety.policy_backup(q2, spec, pi_h), spec.gamma_h),
            (safety.optimal_backup(q1, spec),
             safety.optimal_backup(q2, spec), spec.gamma_h),
            (perf.pair_backup(q1, spec, pi, mu),
             perf.pair_backup(q2, spec, pi, mu), spec.gamma),
            (perf.policy_backup(q1, spec, pi),
             perf.policy_backup(q2, spec, pi), spec.gamma),
        )
        for t1, t2, gamma in checks:
            excess = np.abs(t1 - t2).max() - gamma * dist
            worst = max(worst, excess)
            if excess > _FLOAT_SLACK:
                violations += 1
    return PropertyResult(
        "operator_contraction", violations == 0,
        f"{pairs} pairs x 5 operators, worst excess {worst:.2e}")


def monotonicity_check(spec: GameSpec, pairs: int = 200, seed: int = 0) -> PropertyResult:
    """q >= q' pointwise implies T(q) >= T(q') pointwise for all five backups."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    violations = 0
    for _ in range(pairs):
        q_hi = rng.uniform(-2.0, 2.0, spec.shape)
        q_lo = q_hi - rng.uniform(0.0, 1.0, spec.shape)
        pi_h = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu_h = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        pi = _random_mixed(rng, spec.n_states, spec.n_u)
        mu = _random_mixed(rng, spec.n_states, spec.n_a)
        checks = (
            (safety.pair_backup(q_hi, spec, pi_h, mu_h),
             safety.pair_backup(q_lo, spec, pi_h, mu_h)),
            (safety.policy_backup(q_hi, spec, pi_h),
             safety.policy_backup(q_lo, spec, pi_h)),
            (safety.optimal_backup(q_hi, spec),
             safety.optimal_backup(q_lo, spec)),
            (perf.pair_backup(q_hi, spec, pi, mu),
             perf.pair_backup(q_lo, spec, pi, mu)),
            (perf.policy_backup(q_hi, spec, pi),
             perf.policy_backup(q_lo, spec, pi)),
        )
        for t_hi, t_lo in checks:
            drop = (t_lo - t_hi).max()
            worst = max(worst, drop)
            if drop > _FLOAT_SLACK:
                violations += 1
    return PropertyResult(
        "operator_monotonicity", violations == 0,
        f"{pairs} ordered pairs x 5 operators, worst drop {worst:.2e}")


def set_inclusion_check(spec: GameSpec, n_policies: int = 10, seed: int = 0,
                        tol: float = 1e-10) -> PropertyResult:
    """Policy sets nest inside the optimal set inside the constraint set."""
    rng = np.random.default_rng(seed)
    q_star = safety.solve(spec, safety.optimal_backup, tol=tol).q
    optimal = safety.extract_invariant_set(q_star).member
    in_constraint = spec.constraint >= 0.0
    ok = bool((~optimal | in_constraint).all())
    for _ in range(n_policies):
        pi_h = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        q_pi = safety.solve(spec, safety.policy_backup, pi_h, tol=tol).q
        member = safety.extract_invariant_set(q_pi).member
        ok = ok and bool((~member | optimal).all())
    return PropertyResult(
        "set_inclusion", ok,
        f"{n_policies} random policies nested inside the optimal set")


def sign_certification_check(spec: GameSpec, enum_mode: str = "auto",
                             budget: int = oracle.ENUM_BUDGET,
                             q_h: Optional[np.ndarray] = None,
                             tol: float = 1e-10) -> PropertyResult:
    """Discounted membership at a near-1 discount must match the exact
    undiscounted classification on every non-ambiguous state."""
    if q_h is None:
        strict = dataclasses.replace(spec, gamma_h=CERTIFICATION_GAMMA)
        res = safety.solve(strict, safety.optimal_backup, tol=tol)
        inv = safety.extract_invariant_set(res.q, value_error=res.error_bound)
    else:
        inv = safety.extract_invariant_set(np.asarray(q_h, dtype=np.float64))

    n_pairs = (spec.n_u ** spec.n_states) * (spec.n_a ** spec.n_states)
    if enum_mode == "force" or (enum_mode == "auto" and n_pairs <= budget):
        exact = oracle.enumerate_optimal_safety(spec, budget)
        truth = exact.min(axis=2).max(axis=1) >= 0.0
        source = f"policy enumeration ({n_pairs} pairs)"
    else:
        truth = oracle.viability_kernel(spec)
        source = "set-iteration kernel"

    classified = ~inv.ambiguous
    agree = (inv.member == truth) | ~classified
    mismatches = int((~agree).sum())
    return PropertyResult(
        "sign_certification", mismatches == 0,
        f"{int(classified.sum())}/{spec.n_states} states classified vs "
        f"{source}, {mismatches} mismatches")


def forward_invariance_check(spec: GameSpec, tol: float = 1e-10) -> PropertyResult:
    """No admissible action may leave the member set under any adversary."""
    q_star = safety.solve(spec, safety.optimal_backup, tol=tol).q
    inv = safety.extract_invariant_set(q_star)
    violations, explored = oracle.find_invariance_violations(spec, inv)
    return PropertyResult(
        "forward_invariance", not violations,
        f"{explored} transitions explored, {len(violations)} exits")


def induced_agreement_check(spec: GameSpec, tol: float = 1e-10,
                            atol: float = 1e-7) -> PropertyResult:
    """Constrained fixed point must match the standalone induced-game solve."""
    q_star = safety.solve(spec, safety.optimal_backup, tol=tol).q
    inv = safety.extract_invariant_set(q_star)
    if not inv.member.any():
        return PropertyResult("induced_agreement", True, "no member states")
    engine = perf.solve(spec, perf.constrained_backup, inv, tol=tol).q
    independent = oracle.solve_induced_game(spec, inv, tol)
    cells = inv.member[:, None, None] & inv.admissible[:, :, None]
    gap = float(np.abs((engine - independent)[
        np.broadcast_to(cells, spec.shape)]).max())
    return PropertyResult(
        "induced_agreement", gap <= atol,
        f"max member-cell gap {gap:.2e} (tolerance {atol:.0e})")


def run_all(spec: GameSpec, pairs: int = 200, seed: int = 0,
            enum_mode: str = "auto", q_h: Optional[np.ndarray] = None,
            tol: float = 1e-10) -> List[PropertyResult]:
    """Run every cross-check.  BudgetExceeded escapes only when enumeration
    is forced on an oversized instance."""
    return [
        contraction_check(spec, pairs, seed),
        monotonicity_check(spec, pairs, seed),
        set_inclusion_check(spec, seed=seed, tol=tol),
        sign_certification_check(spec, enum_mode, q_h=q_h, tol=tol),
        forward_invariance_check(spec, tol),
        induced_agreement_check(spec, tol),
    ]
