"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 8 asserts a strict shrinkage of the member set
on the canonical one-hazard grid; the computed sets are provably equal at
the default threshold (see README, acceptance status), so that single
assertion fails by design while its classification half is checked first.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from safegames import (ADVERSARY, PROTAGONIST, DetPolicy, DpiConfig,
                       GameSpec, InfeasibleGame, MixedPolicy)
from safegames import cli, dpi, oracle, perf, safety
from safegames.envs import GridworldParams, RandomGameParams, gridworld, random_game
from safegames.matrix_game import restricted, solve
from lp_oracle import solve_support_enumeration

FLOAT_SLACK = 1e-12


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _operator_games():
    return [random_game(RandomGameParams(n_states=8, n_u=3, n_a=3, seed=s))
            for s in range(20)]


def _random_policies(rng, spec):
    pi_h = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
    mu_h = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
    prob_u = rng.random((spec.n_states, spec.n_u)) + 1e-3
    pi = MixedPolicy(prob_u / prob_u.sum(axis=1, keepdims=True))
    prob_a = rng.random((spec.n_states, spec.n_a)) + 1e-3
    mu = MixedPolicy(prob_a / prob_a.sum(axis=1, keepdims=True))
    return pi_h, mu_h, pi, mu


def _all_five(q, spec, pi_h, mu_h, pi, mu):
    return (
        (safety.pair_backup(q, spec, pi_h, mu_h), spec.gamma_h),
        (safety.policy_backup(q, spec, pi_h), spec.gamma_h),
        (safety.optimal_backup(q, spec), spec.gamma_h),
        (perf.pair_backup(q, spec, pi, mu), spec.gamma),
        (perf.policy_backup(q, spec, pi), spec.gamma),
    )


def test_criterion_1_operator_contraction():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    violations = 0
    for spec in _operator_games():
        for _ in range(50):  # 50 pairs x 20 games = 1000 pairs
            q1 = rng.uniform(-2.0, 2.0, spec.shape)
            q2 = rng.uniform(-2.0, 2.0, spec.shape)
            dist = np.abs(q1 - q2).max()
            policies = _random_policies(rng, spec)
            for (t1, gamma), (t2, _) in zip(_all_five(q1, spec, *policies),
                                            _all_five(q2, spec, *policies)):
                if np.abs(t1 - t2).max() > gamma * dist + FLOAT_SLACK:
                    violations += 1
    elapsed = time.monotonic() - start
    _report(1, violations == 0 and elapsed < 30.0,
            f"1000 pairs x 5 operators x 20 games, {violations} violations, "
            f"{elapsed:.1f}s")


def test_criterion_2_operator_monotonicity():
    rng = np.random.default_rng(2)
    violations = 0
    for spec in _operator_games():
        for _ in range(50):
            q_hi = rng.uniform(-2.0, 2.0, spec.shape)
            q_lo = q_hi - rng.uniform(0.0, 1.0, spec.shape)
            policies = _random_policies(rng, spec)
            for (t_hi, _), (t_lo, _) in zip(_all_five(q_hi, spec, *policies),
                                            _all_five(q_lo, spec, *policies)):
                if (t_lo - t_hi).max() > FLOAT_SLACK:
                    violations += 1
    _report(2, violations == 0,
            f"1000 ordered pairs x 5 operators, {violations} violations")


def test_criterion_3_sign_certification_against_enum():
    start = time.monotonic()
    mismatches = 0
    classified = 0
    for seed in range(20):
        spec = random_game(RandomGameParams(n_states=4, n_u=2, n_a=2, seed=seed))
        strict = dataclasses.replace(spec, gamma_h=0.999)
        res = safety.solve(strict, safety.optimal_backup, tol=1e-10)
        inv = safety.extract_invariant_set(res.q, value_error=res.error_bound)
        enum = oracle.enumerate_optimal_safety(spec)
        truth = enum.min(axis=2).max(axis=1) >= 0.0
        usable = ~inv.ambiguous
        classified += int(usable.sum())
        mismatches += int(((inv.member != truth) & usable).sum())
    elapsed = time.monotonic() - start
    _report(3, mismatches == 0 and elapsed < 120.0,
            f"{classified} classified states over 20 games, "
            f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_discount_convergence_closed_form(g2):
    tables = oracle.discounted_sweep(g2, [0.9, 0.99, 0.999], tol=5e-13)
    gammas = (0.9, 0.99, 0.999)
    values = [float(tables[g][0, 1, 0]) for g in gammas]
    closed_form_ok = all(abs(v - (1.0 - 2.0 * g)) <= 1e-9
                         for v, g in zip(values, gammas))
    monotone = values[0] > values[1] > values[2] > -1.0
    _report(4, closed_form_ok and monotone,
            f"values {values} vs closed form, monotone toward -1: {monotone}")


def _feasible_games(count=20, n_states=8, n_u=3, n_a=3):
    games, seed = [], 0
    while len(games) < count:
        spec = random_game(RandomGameParams(
            n_states=n_states, n_u=n_u, n_a=n_a, seed=seed))
        q_star = safety.solve(spec, safety.optimal_backup, tol=1e-8).q
        if safety.is_feasible(q_star):
            games.append(spec)
        seed += 1
    return games


@pytest.fixture(scope="module")
def dpi_runs():
    games = _feasible_games()
    return [(spec, dpi.run(spec, DpiConfig(m=40, n=2, tol=1e-11)))
            for spec in games]


def test_criterion_5_dual_iteration_convergence(dpi_runs):
    worst_gap = worst_residual = worst_chain = 0.0
    member_drops = 0
    for spec, result in dpi_runs:
        direct = safety.solve(spec, safety.optimal_backup, tol=1e-11).q
        worst_gap = max(worst_gap, float(np.abs(result.q_h - direct).max()))
        worst_residual = max(worst_residual,
                             result.trace.final_constrained_residual)
        steps = result.trace.steps
        worst_chain = max([worst_chain] + [s.safety_decrease for s in steps])
        for prev, cur in zip(steps, steps[1:]):
            if cur.member_count < prev.member_count:
                member_drops += 1
    ok = (worst_gap <= 1e-6 and worst_residual <= 1e-6
          and worst_chain <= 1e-8 and member_drops == 0)
    _report(5, ok,
            f"20 feasible games: qh gap {worst_gap:.2e}, constrained "
            f"residual {worst_residual:.2e}, chain slack {worst_chain:.2e}, "
            f"member drops {member_drops}")


def test_criterion_6_forward_invariance_search(dpi_runs):
    transitions = 0
    exits = 0
    for spec, result in dpi_runs:
        violations, explored = oracle.find_invariance_violations(
            spec, result.invariant_set)
        exits += len(violations)
        transitions += explored
    for seed in range(25):  # larger games push the explored count past 1e4
        spec = random_game(RandomGameParams(
            n_states=40, n_u=4, n_a=4, hazard_fraction=0.2, seed=100 + seed))
        inv = safety.extract_invariant_set(
            safety.solve(spec, safety.optimal_backup).q)
        violations, explored = oracle.find_invariance_violations(spec, inv)
        exits += len(violations)
        transitions += explored
    _report(6, exits == 0 and transitions >= 10_000,
            f"{transitions} transitions explored, {exits} exits")


def test_criterion_7_matrix_game_lp():
    pennies = solve(restricted(np.array([[1.0, -1.0], [-1.0, 1.0]]), [0, 1]))
    pennies_ok = (abs(pennies.value) <= 1e-9
                  and np.abs(pennies.strategy - 0.5).max() <= 1e-9)

    rng = np.random.default_rng(7)
    oracle_gap = strategy_gap = 0.0
    sandwich_ok = True
    for _ in range(200):
        payoff = rng.uniform(-1.0, 1.0, (3, 3))
        sol = solve(restricted(payoff, [0, 1, 2]))
        strategy, value = solve_support_enumeration(payoff, [0, 1, 2])
        oracle_gap = max(oracle_gap, abs(sol.value - value))
        strategy_gap = max(strategy_gap,
                           float(np.abs(sol.strategy - strategy).max()))
        pure_low = payoff.min(axis=1).max()
        pure_high = payoff.max(axis=0).min()
        if not (pure_low - 1e-9 <= sol.value <= pure_high + 1e-9):
            sandwich_ok = False
    ok = (pennies_ok and oracle_gap <= 1e-8 and strategy_gap <= 1e-8
          and sandwich_ok)
    _report(7, ok,
            f"pennies ok: {pennies_ok}, 200 games: value gap "
            f"{oracle_gap:.2e}, strategy gap {strategy_gap:.2e}, "
            f"sandwich: {sandwich_ok}")


def test_criterion_8_gridworld_adversary_monotonicity():
    masks = {}
    classification_ok = True
    for strength in (0, 1):
        spec = gridworld(GridworldParams(
            width=4, height=4, hazard_cells=((0, 0),), goal_cell=(3, 3),
            adversary_strength=strength))
        res = safety.solve(spec, safety.optimal_backup, tol=1e-10)
        inv = safety.extract_invariant_set(res.q, value_error=res.error_bound)
        kernel = oracle.viability_kernel(spec)
        if not ((inv.member == kernel) | inv.ambiguous).all():
            classification_ok = False
        masks[strength] = inv.member
    subset = bool((~masks[1] | masks[0]).all())
    strict = subset and masks[1].sum() < masks[0].sum()
    _report(8, classification_ok and strict,
            f"classification matches the exact kernel: {classification_ok}; "
            f"member counts strength0={int(masks[0].sum())}, "
            f"strength1={int(masks[1].sum())}, strict subset: {strict} "
            "(the two sets are provably equal at threshold 0, so strictness "
            "cannot hold; see README acceptance status)")


def test_criterion_9_infeasibility_handling(g3, tmp_path, capsys):
    raised = 0
    for _ in range(2):
        try:
            dpi.run(g3, DpiConfig(m=3, n=2))
        except InfeasibleGame:
            raised += 1

    path = tmp_path / "g3.json"
    cli.save_game(g3, path)
    codes = [cli.main(["solve", "--game", str(path),
                       "--out", str(tmp_path / f"o{i}")]) for i in range(2)]
    capsys.readouterr()
    _report(9, raised == 2 and codes == [2, 2],
            f"InfeasibleGame raised {raised}/2 runs, solve exit codes {codes}")


def test_criterion_10_reproducibility(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                       "--out", str(out_a)])
    code_b = cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                       "--out", str(out_b)])
    capsys.readouterr()
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("policy.json", "qh.csv", "q.csv", "set.pgm", "trace.csv"))
    _report(10, code_a == 0 and code_b == 0 and identical,
            f"two seeded runs, exit codes ({code_a}, {code_b}), "
            f"byte-identical artifacts: {identical}")
