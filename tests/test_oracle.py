import numpy as np
import pytest

from safegames import (ADVERSARY, PROTAGONIST, BudgetExceeded, DetPolicy,
                       NonMemberSuccessor)
from safegames import oracle, perf, safety
from safegames.safety import InvariantSet
from conftest import make_random_spec
import value_iteration
from rollout import rollout


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


def test_trajectory_value_follows_the_policy_after_revisiting_the_start(g2):
    # The first step loops back to x0; the protagonist's own action there
    # then leaves for the absorbing unsafe state.
    pi = DetPolicy.constant(2, 1, PROTAGONIST)
    mu = DetPolicy.constant(2, 0, ADVERSARY)
    assert oracle.trajectory_min_constraint(g2, 0, 0, 0, pi, mu) == -1.0
    assert rollout(g2, 0, 0, 0, pi, mu).states.tolist() == [0, 0, 1, 1]


def _simulated_min(spec, x0, u0, a0, pi, mu):
    """Minimum of h over the first 2 * n_states + 1 states of the
    trajectory, which reach around the closed loop's cycle."""
    worst, x, u, a = spec.constraint[x0], x0, u0, a0
    for _ in range(2 * spec.n_states):
        x = spec.transition[x, u, a]
        worst = min(worst, spec.constraint[x])
        u, a = pi.action[x], mu.action[x]
    return worst


def test_trajectory_value_matches_simulation_from_every_cell():
    for seed in range(10):
        spec = make_random_spec(seed)
        rng = np.random.default_rng(seed + 100)
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        for x0, u0, a0 in np.ndindex(spec.shape):
            got = oracle.trajectory_min_constraint(spec, x0, u0, a0, pi, mu)
            assert got == _simulated_min(spec, x0, u0, a0, pi, mu)
            traj = rollout(spec, x0, u0, a0, pi, mu)
            assert got == spec.constraint[traj.states].min()


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
        inv = safety.extract_invariant_set(
            safety.solve(strict), strict)
        assert np.array_equal(inv.member, truth)


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
        safety.solve(g1), g1)
    q1 = oracle.solve_induced_game(g1, inv1)
    assert q1[0, 0, 0] == pytest.approx(1.0 / (1.0 - g1.gamma), abs=1e-8)

    inv2 = safety.extract_invariant_set(
        safety.solve(g2_rewarded), g2_rewarded)
    q2 = oracle.solve_induced_game(g2_rewarded, inv2)
    assert q2[0, 0, 0] == pytest.approx(1.0 / (1.0 - g2_rewarded.gamma),
                                        abs=1e-8)


def test_induced_game_agrees_with_constrained_fixed_point():
    spec = make_random_spec(4, n_states=6, n_u=2, n_a=2)
    inv = safety.extract_invariant_set(
        safety.solve(spec), spec)
    assert inv.member.any()
    engine = value_iteration.solve(spec, perf.constrained_backup, inv,
                                   tol=1e-10).q
    independent = oracle.solve_induced_game(spec, inv, tol=1e-10)
    cells = np.broadcast_to(inv.member[:, None, None]
                            & inv.admissible[:, :, None], spec.shape)
    assert np.abs((engine - independent)[cells]).max() <= 1e-7


def test_induced_game_names_the_first_exit_of_a_stale_set(g2_rewarded):
    bad = InvariantSet(member=np.array([True, False]),
                       admissible=np.array([[True, True], [False, False]]))
    with pytest.raises(NonMemberSuccessor) as err:
        oracle.solve_induced_game(g2_rewarded, bad)
    assert str(err.value) == ("admissible action 1 at member state 0 "
                              "reaches non-member state 1")


def test_induced_game_and_engine_name_the_same_exit():
    spec = make_random_spec(2)
    inv = safety.extract_invariant_set(
        safety.solve(spec), spec)
    leaky = ~inv.member[spec.transition].all(axis=2) & inv.member[:, None]
    stale = InvariantSet(inv.member, inv.admissible | leaky)
    x, u, a, succ = oracle.find_invariance_violations(spec, stale)[0][0]
    with pytest.raises(NonMemberSuccessor) as oracle_err:
        oracle.solve_induced_game(spec, stale)
    with pytest.raises(NonMemberSuccessor) as engine_err:
        perf.constrained_backup(np.zeros(spec.shape), spec, stale)
    assert str(oracle_err.value) == str(engine_err.value) == (
        f"admissible action {u} at member state {x} reaches "
        f"non-member state {succ}")


def test_invariance_search_clean_on_converged_sets():
    total = 0
    for seed in range(10):
        spec = make_random_spec(seed)
        inv = safety.extract_invariant_set(
            safety.solve(spec), spec)
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


def _exits_by_loop(spec, inv):
    """Reference scan: every admissible transition out of a member state."""
    exits, scanned = [], 0
    for x in range(spec.n_states):
        for u in range(spec.n_u):
            if not (inv.member[x] and inv.admissible[x, u]):
                continue
            for a in range(spec.n_a):
                scanned += 1
                y = int(spec.transition[x, u, a])
                if not inv.member[y]:
                    exits.append((x, u, a, y))
    return exits, scanned


def test_invariance_scan_matches_a_reference_loop():
    rng = np.random.default_rng(0)
    leaky = 0
    for seed in (2, 7, 9):
        spec = make_random_spec(seed)
        solved = safety.extract_invariant_set(
            safety.solve(spec), spec)
        admissible = rng.random((spec.n_states, spec.n_u)) < 0.6
        stale = InvariantSet(admissible.any(axis=1), admissible)
        for inv in (solved, stale):
            expected = _exits_by_loop(spec, inv)
            assert oracle.find_invariance_violations(spec, inv) == expected
            leaky += bool(expected[0])
    assert leaky > 0
