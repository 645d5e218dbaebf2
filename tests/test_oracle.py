import numpy as np
import pytest

from safegames import (ADVERSARY, PROTAGONIST, BudgetExceeded, DetPolicy,
                       rollout)
from safegames import oracle, perf, safety
from safegames.safety import InvariantSet
from conftest import make_random_spec


def test_trajectory_value_anchors(g1, g2):
    pi = DetPolicy.constant(1, 0, PROTAGONIST)
    mu = DetPolicy.constant(1, 0, ADVERSARY)
    assert oracle.trajectory_min_constraint(g1, 0, 0, 0, pi, mu) == 2.0

    pi2 = DetPolicy.constant(2, 0, PROTAGONIST)
    mu2 = DetPolicy.constant(2, 0, ADVERSARY)
    assert oracle.trajectory_min_constraint(g2, 0, 1, 0, pi2, mu2) == -1.0


def test_trajectory_value_matches_rollout_minimum():
    for seed in range(10):
        spec = make_random_spec(seed)
        rng = np.random.default_rng(seed + 100)
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        for _ in range(5):
            x0 = int(rng.integers(spec.n_states))
            u0 = int(rng.integers(spec.n_u))
            a0 = int(rng.integers(spec.n_a))
            traj = rollout(spec, x0, u0, a0, pi, mu)
            expected = spec.constraint[traj.states].min()
            got = oracle.trajectory_min_constraint(spec, x0, u0, a0, pi, mu)
            assert got == expected


def test_enum_anchors(g1, g2, g3):
    assert np.array_equal(oracle.enumerate_optimal_safety(g1),
                          np.full((1, 1, 1), 2.0))
    e2 = oracle.enumerate_optimal_safety(g2)
    assert e2[0, 0, 0] == 1.0
    assert e2[0, 1, 0] == -1.0
    assert (e2[1] == -1.0).all()
    e3 = oracle.enumerate_optimal_safety(g3)
    assert (e3[0] == -1.0).all()
    assert (e3[1] == -1.0).all()


def test_enum_budget_guard():
    spec = make_random_spec(0, n_states=12, n_u=3, n_a=3)
    with pytest.raises(BudgetExceeded):
        oracle.enumerate_optimal_safety(spec)


def test_enum_positivity_matches_discounted_membership():
    import dataclasses
    for seed in range(10):
        spec = make_random_spec(seed, n_states=4, n_u=2, n_a=2)
        enum = oracle.enumerate_optimal_safety(spec)
        truth = enum.min(axis=2).max(axis=1) >= 0
        strict = dataclasses.replace(spec, gamma_h=0.999)
        res = safety.solve(strict, safety.optimal_backup)
        inv = safety.extract_invariant_set(res.q, value_error=res.error_bound)
        classified = ~inv.ambiguous
        assert ((inv.member == truth) | ~classified).all()


def test_viability_kernel_matches_enum_positivity():
    for seed in range(20):
        spec = make_random_spec(seed, n_states=4, n_u=2, n_a=2)
        enum = oracle.enumerate_optimal_safety(spec)
        truth = enum.min(axis=2).max(axis=1) >= 0
        assert np.array_equal(oracle.viability_kernel(spec), truth)
    for seed in range(5):
        spec = make_random_spec(seed, n_states=5, n_u=3, n_a=2)
        enum = oracle.enumerate_optimal_safety(spec)
        truth = enum.min(axis=2).max(axis=1) >= 0
        assert np.array_equal(oracle.viability_kernel(spec), truth)


def test_discounted_sweep_closed_form(g2):
    tables = oracle.discounted_sweep(g2, [0.9, 0.99, 0.999], tol=5e-13)
    values = [tables[g][0, 1, 0] for g in (0.9, 0.99, 0.999)]
    for gamma_h, value in zip((0.9, 0.99, 0.999), values):
        assert value == pytest.approx(1.0 - 2.0 * gamma_h, abs=1e-9)
    # monotone approach to the exact undiscounted value -1 from above
    assert values[0] > values[1] > values[2] > -1.0


def test_discounted_sweep_constant_orbit(g1):
    tables = oracle.discounted_sweep(g1, [0.5, 0.9, 0.99])
    for q in tables.values():
        assert np.abs(q - 2.0).max() <= 1e-8


def test_discounted_sweep_sign_agreement_with_enum():
    for seed in range(5):
        spec = make_random_spec(seed, n_states=4, n_u=2, n_a=2)
        enum = oracle.enumerate_optimal_safety(spec)
        q = oracle.discounted_sweep(spec, [0.999])[0.999]
        cells = np.abs(enum) > 1e-3
        assert (np.sign(q[cells]) == np.sign(enum[cells])).all()


def test_discounted_sweep_rejects_bad_gamma(g1):
    with pytest.raises(ValueError):
        oracle.discounted_sweep(g1, [1.0])


def test_induced_game_anchors(g1, g2_rewarded):
    inv1 = safety.extract_invariant_set(
        safety.solve(g1, safety.optimal_backup).q)
    q1 = oracle.solve_induced_game(g1, inv1)
    assert q1[0, 0, 0] == pytest.approx(1.0 / (1.0 - g1.gamma), abs=1e-8)

    inv2 = safety.extract_invariant_set(
        safety.solve(g2_rewarded, safety.optimal_backup).q)
    q2 = oracle.solve_induced_game(g2_rewarded, inv2)
    assert q2[0, 0, 0] == pytest.approx(1.0 / (1.0 - g2_rewarded.gamma),
                                        abs=1e-8)


def test_induced_game_agrees_with_constrained_fixed_point():
    spec = make_random_spec(4, n_states=6, n_u=2, n_a=2)
    inv = safety.extract_invariant_set(
        safety.solve(spec, safety.optimal_backup).q)
    assert inv.member.any()
    engine = perf.solve(spec, perf.constrained_backup, inv, tol=1e-10).q
    independent = oracle.solve_induced_game(spec, inv, tol=1e-10)
    cells = np.broadcast_to(inv.member[:, None, None]
                            & inv.admissible[:, :, None], spec.shape)
    assert np.abs((engine - independent)[cells]).max() <= 1e-7


def test_invariance_search_clean_on_converged_sets():
    total = 0
    for seed in range(10):
        spec = make_random_spec(seed)
        inv = safety.extract_invariant_set(
            safety.solve(spec, safety.optimal_backup).q)
        violations, explored = oracle.find_invariance_violations(spec, inv)
        assert violations == []
        total += explored
    assert total > 0


def test_invariance_search_flags_stale_set(g2):
    bad = InvariantSet(member=np.array([True, False]),
                       admissible=np.array([[True, True], [False, False]]))
    violations, explored = oracle.find_invariance_violations(g2, bad)
    assert (0, 1, 0, 1) in violations
    assert explored >= 2
