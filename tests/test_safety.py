import dataclasses

import numpy as np
import pytest

from safegames import ADVERSARY, PROTAGONIST, DetPolicy, MaxIterExceeded
from safegames import oracle, safety
from safegames.envs import GridworldParams, gridworld
from conftest import make_random_spec, push_grid_hazards


def _iterate_plain(backup, q0, sweeps=4000, tol=1e-12):
    """Test-local fixed-point iteration, independent of safety.fixed_point."""
    q = q0
    for _ in range(sweeps):
        q_next = backup(q)
        if np.abs(q_next - q).max() <= tol:
            return q_next
        q = q_next
    raise AssertionError("oracle iteration did not converge")


def test_pair_backup_g1_fixed_point(g1):
    pi = DetPolicy.constant(1, 0, PROTAGONIST)
    mu = DetPolicy.constant(1, 0, ADVERSARY)
    q = np.full((1, 1, 1), 2.0)
    out = safety.pair_backup(q, g1, pi, mu)
    assert np.array_equal(out, q)


def test_pair_backup_g2_single_application(g2):
    pi = DetPolicy.constant(2, 0, PROTAGONIST)
    mu = DetPolicy.constant(2, 0, ADVERSARY)
    out = safety.pair_backup(np.zeros((2, 2, 1)), g2, pi, mu)
    # (1-0.9)*(-1) + 0.9*min(-1, 0) = -1.0 on the unsafe row
    assert out[1, 0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert out[1, 1, 0] == pytest.approx(-1.0, abs=1e-15)


def test_pair_backup_g2_fixed_point_value(g2):
    pi = DetPolicy.constant(2, 0, PROTAGONIST)  # stays on the safe loop
    mu = DetPolicy.constant(2, 0, ADVERSARY)
    q = _iterate_plain(lambda q: safety.pair_backup(q, g2, pi, mu),
                       np.zeros((2, 2, 1)))
    assert q[0, 1, 0] == pytest.approx(1.0 - 2.0 * g2.gamma_h, abs=1e-10)


def test_policy_backup_matches_pair_on_singleton_adversary(g1):
    pi = DetPolicy.constant(1, 0, PROTAGONIST)
    mu = DetPolicy.constant(1, 0, ADVERSARY)
    q = np.random.default_rng(0).uniform(-1, 1, (1, 1, 1))
    assert np.array_equal(safety.policy_backup(q, g1, pi),
                          safety.pair_backup(q, g1, pi, mu))


def test_policy_backup_uniform_table(g3):
    pi = DetPolicy.constant(2, 0, PROTAGONIST)
    out = safety.policy_backup(np.ones((2, 2, 2)), g3, pi)
    # (1-0.9)*1 + 0.9*min(1, 1) = 1 on the safe matching row
    assert out[0, 0, 0] == pytest.approx(1.0, abs=1e-15)


def test_policy_eval_matches_plain_iteration(g3):
    pi = DetPolicy.constant(2, 0, PROTAGONIST)
    expected = _iterate_plain(lambda q: safety.policy_backup(q, g3, pi),
                              np.zeros((2, 2, 2)))
    q = safety.solve(g3, pi)
    assert np.abs(q - expected).max() <= 1e-10
    # one extra application leaves the exact table where it is
    again = safety.policy_backup(q, g3, pi)
    assert np.abs(again - q).max() == 0.0


def test_optimal_fixed_points_on_anchors(g1, g2, g3):
    q1 = safety.solve(g1)
    assert np.abs(q1 - 2.0).max() <= 1e-10

    q2 = safety.solve(g2)
    assert q2[0, 0, 0] == pytest.approx(1.0, abs=1e-10)
    assert q2[0, 1, 0] == pytest.approx(-0.8, abs=1e-10)
    assert q2[1, 0, 0] == pytest.approx(-1.0, abs=1e-10)

    q3 = safety.solve(g3)
    assert safety.state_value(q3)[0] < 0.0  # the adversary always mismatches


def test_fixed_point_from_zeros(g1, g2):
    q = safety.solve(g1)
    assert q[0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    residual = np.abs(safety.optimal_backup(q, g1) - q).max()
    assert residual <= 1e-10
    # a table one backup moves by r is within this bound of the fixed point
    bound = g1.gamma_h * residual / (1 - g1.gamma_h)
    assert np.abs(q - 2.0).max() <= bound
    q2 = safety.solve(g2)
    assert q2[0, 1, 0] == pytest.approx(-0.8, abs=1e-8)


def test_fixed_point_budget_exhaustion():
    # The exact solve caps each player's improvements; value iteration caps
    # sweeps.  This game needs three improvements of one player.
    spec = make_random_spec(0, n_states=30, gamma_h=0.999)

    def solves_within(budget):
        try:
            safety.solve(spec, max_iter=budget)
        except MaxIterExceeded:
            return False
        return True

    needed = next(k for k in range(100) if solves_within(k))
    assert needed >= 2
    with pytest.raises(MaxIterExceeded) as err:
        safety.solve(spec, max_iter=needed - 1)
    assert err.value.iterations == needed - 1
    assert err.value.residual > 1e-10
    flat = make_random_spec(0, hazard_fraction=0.0, gamma_h=0.999)
    with pytest.raises(MaxIterExceeded) as err:
        safety.fixed_point(lambda q: safety.optimal_backup(q, flat),
                           np.zeros(flat.shape), tol=1e-10, max_iter=10)
    assert err.value.iterations == 10
    assert err.value.residual > 1e-10


def test_protagonist_budget_exhaustion():
    # One protagonist improvement is too few for this game.
    with pytest.raises(MaxIterExceeded,
                       match="after 1 protagonist improvements") as err:
        safety.solve(make_random_spec(8), max_iter=1)
    assert err.value.iterations == 1 and err.value.residual > 0.0


def test_negative_budget_is_rejected_and_zero_allows_no_improvement(g1, g2):
    pi_h = DetPolicy.constant(2, 0, PROTAGONIST)
    for call in (lambda: safety.solve(g2, max_iter=-3),
                 lambda: safety.solve(g2, pi_h, max_iter=-1),
                 lambda: next(safety.policy_iteration(g2, -1))):
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            call()
    # g1 has one action per player, so it needs no improvement at all
    assert np.array_equal(safety.solve(g1, max_iter=0), safety.solve(g1))
    with pytest.raises(MaxIterExceeded):
        safety.solve(make_random_spec(8), max_iter=0)


def test_fixed_point_rejects_bad_tol(g1):
    with pytest.raises(ValueError):
        safety.fixed_point(lambda q: q, np.zeros((1, 1, 1)), tol=0.0)


def test_fixed_point_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        safety.fixed_point(lambda q: q / 2, np.ones(1), max_iter=-3)
    # zero allows no sweep
    with pytest.raises(MaxIterExceeded, match="after 0 sweeps"):
        safety.fixed_point(lambda q: q / 2, np.ones(1), max_iter=0)


def test_fixed_point_stops_where_rounding_stalls_it():
    # q -> 1e12 - q / 2 contracts toward 2e12 / 3, where one ulp is 2**-13,
    # far above tol: its sweeps end in a rounding two-cycle, not at tol.
    def op(q):
        return 1e12 - 0.5 * q

    res = safety.fixed_point(op, np.zeros(1), tol=1e-10, max_iter=1000)
    q, moves = np.zeros(1), []
    while len(moves) < 2 or moves[-1] < moves[-2]:
        prev, q = q, op(q)
        moves.append(np.abs(q - prev).max())
    assert res.iterations == len(moves) == 55
    assert np.array_equal(res.q, prev)  # the stalled sweep is not taken
    assert res.residual == moves[-1] == 2.0 ** -13


def test_improve_policy_prefers_safe_loop(g2):
    q = safety.solve(g2)
    pi = safety.improve_policy(q, DetPolicy.constant(2, 1, PROTAGONIST))
    assert pi.action[0] == 0  # value 1 beats -0.8
    assert pi.role == PROTAGONIST


def test_improve_policy_tie_breaks_low_index():
    uniform = np.zeros((3, 2, 2))
    start = DetPolicy(np.array([0, 1, 0]), PROTAGONIST)
    assert safety.improve_policy(uniform, start).action.tolist() == [0, 1, 0]
    q = np.zeros((1, 3, 1))
    q[0, :, 0] = [0.3, 0.7, 0.7]
    zero = DetPolicy.constant(1, 0, PROTAGONIST)
    assert safety.improve_policy(q, zero).action[0] == 1
    two = DetPolicy.constant(1, 2, PROTAGONIST)
    assert safety.improve_policy(q, two).action[0] == 2


def test_extract_invariant_set_anchors(g1, g2, g3):
    inv1 = safety.extract_invariant_set(
        safety.solve(g1), g1)
    assert inv1.member.tolist() == [True]
    assert np.flatnonzero(inv1.admissible[0]).tolist() == [0]

    inv2 = safety.extract_invariant_set(
        safety.solve(g2), g2)
    assert inv2.member.tolist() == [True, False]
    assert np.flatnonzero(inv2.admissible[0]).tolist() == [0]
    assert np.flatnonzero(inv2.admissible[1]).tolist() == []

    inv3 = safety.extract_invariant_set(
        safety.solve(g3), g3)
    assert not inv3.member.any()


def test_extract_invariant_set_closes_the_sign_test(chain):
    # At gamma_h = 0.9 state 0 keeps 0.2 + 0.9 * v(1) >= 0 although state 1,
    # its only successor, is negative; the closed set and the kernel are
    # empty.
    q = safety.solve(chain)
    assert q[0].min() >= 0.0 > q[1].min()
    inv = safety.extract_invariant_set(q, chain)
    assert not inv.member.any() and not inv.admissible.any()
    assert not oracle.viability_kernel(chain).any()
    # A second action that keeps state 0 in place makes it a member, and
    # its first action, which passes the sign test, stays inadmissible.
    transition = np.repeat(chain.transition, 2, axis=1)
    transition[0, 1] = 0
    spec = dataclasses.replace(chain, n_u=2, transition=transition,
                               reward=np.zeros((5, 2, 1)))
    q = safety.solve(spec)
    assert q[0, 0, 0] >= 0.0
    inv = safety.extract_invariant_set(q, spec)
    assert inv.member.tolist() == [True, False, False, False, False]
    assert inv.admissible[0].tolist() == [False, True]


def test_invariant_set_members_are_the_states_with_an_admissible_action():
    admissible = np.array([[True, False], [False, False]])
    safety.InvariantSet(np.array([True, False]), admissible)
    # a member without an admissible action
    with pytest.raises(ValueError):
        safety.InvariantSet(np.array([True, True]), admissible)
    # an admissible action at a non-member
    with pytest.raises(ValueError):
        safety.InvariantSet(np.array([False, False]), admissible)


def test_feasibility_anchors(g1, g2, g3):
    def feasible(spec):
        q = safety.solve(spec)
        return safety.extract_invariant_set(q, spec).member.any()

    assert feasible(g1)
    assert feasible(g2)
    assert not feasible(g3)


def test_fixed_point_bounded_by_constraint_range():
    for seed in range(5):
        spec = make_random_spec(seed)
        q = safety.solve(spec)
        assert q.min() >= spec.constraint.min() - 1e-9
        assert q.max() <= spec.constraint.max() + 1e-9


def test_contraction_property_sweep():
    rng = np.random.default_rng(7)
    for seed in range(5):
        spec = make_random_spec(seed)
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        for _ in range(40):
            q1 = rng.uniform(-2, 2, spec.shape)
            q2 = rng.uniform(-2, 2, spec.shape)
            bound = spec.gamma_h * np.abs(q1 - q2).max() + 1e-12
            assert np.abs(safety.pair_backup(q1, spec, pi, mu)
                          - safety.pair_backup(q2, spec, pi, mu)).max() <= bound
            assert np.abs(safety.policy_backup(q1, spec, pi)
                          - safety.policy_backup(q2, spec, pi)).max() <= bound
            assert np.abs(safety.optimal_backup(q1, spec)
                          - safety.optimal_backup(q2, spec)).max() <= bound


def test_monotonicity_property_sweep():
    rng = np.random.default_rng(8)
    for seed in range(5):
        spec = make_random_spec(seed)
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        for _ in range(40):
            hi = rng.uniform(-2, 2, spec.shape)
            lo = hi - rng.uniform(0, 1, spec.shape)
            assert (safety.pair_backup(hi, spec, pi, mu)
                    >= safety.pair_backup(lo, spec, pi, mu) - 1e-12).all()
            assert (safety.policy_backup(hi, spec, pi)
                    >= safety.policy_backup(lo, spec, pi) - 1e-12).all()
            assert (safety.optimal_backup(hi, spec)
                    >= safety.optimal_backup(lo, spec) - 1e-12).all()


def test_set_inclusion_chain():
    rng = np.random.default_rng(9)
    for seed in range(8):
        spec = make_random_spec(seed)
        optimal = safety.extract_invariant_set(
            safety.solve(spec), spec)
        constraint_set = spec.constraint >= 0
        assert (~optimal.member | constraint_set).all()
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        policy_set = safety.extract_invariant_set(
            safety.solve(spec, pi), spec)
        assert (~policy_set.member | optimal.member).all()


def test_exact_tables_agree_with_value_iteration():
    # A random game and a grid of the benchmark's small-op sizes, at the
    # sweep discounts; value iteration stopping at residual <= tol is within
    # gamma_h * tol / (1 - gamma_h) of the fixed point.
    tol = 1e-10
    ladder = (make_random_spec(0, n_states=30, n_u=6, n_a=3,
                               hazard_fraction=0.1),
              gridworld(GridworldParams(width=8, height=8,
                                        hazard_cells=((2, 3), (5, 1), (4, 6)),
                                        goal_cell=(7, 7))))
    for spec in ladder:
        gammas = (0.99, 0.999)
        swept = oracle.discounted_sweep(spec, gammas, tol=tol)
        for gamma_h in gammas:
            strict = dataclasses.replace(spec, gamma_h=gamma_h)
            exact = safety.solve(strict)
            residual = np.abs(safety.optimal_backup(exact, strict)
                              - exact).max()
            assert residual == 0.0
            bound = gamma_h * tol / (1.0 - gamma_h)
            assert np.abs(exact - swept[gamma_h]).max() <= bound + 1e-12


def test_exact_solve_classifies_zero_values_on_a_push_grid():
    # About 200 states of this grid hold the value 0 exactly.  Doubling
    # alone leaves the max-min table a few ulps off its own backup, which
    # would drop every one of them from the set.
    spec = gridworld(GridworldParams(width=32, height=32,
                                     hazard_cells=push_grid_hazards(),
                                     goal_cell=(31, 31)))
    kernel = oracle.viability_kernel(spec)
    for gamma_h in (0.99, 0.999):
        strict = dataclasses.replace(spec, gamma_h=gamma_h)
        q = safety.solve(strict)
        inv = safety.extract_invariant_set(q, strict)
        assert np.abs(safety.optimal_backup(q, strict) - q).max() == 0.0
        assert (safety.state_value(q)[kernel] == 0.0).sum() > 100
        assert np.array_equal(inv.member, kernel)
