import numpy as np
import pytest

from safegames import ADVERSARY, PROTAGONIST, DetPolicy, MaxIterExceeded
from safegames import safety
from conftest import make_random_spec


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
    res = safety.solve(g3, safety.policy_backup, pi, tol=1e-12)
    assert np.abs(res.q - expected).max() <= 1e-10
    # one extra application stays within the reported residual
    again = safety.policy_backup(res.q, g3, pi)
    assert np.abs(again - res.q).max() <= res.residual


def test_optimal_fixed_points_on_anchors(g1, g2, g3):
    q1 = safety.solve(g1, safety.optimal_backup, tol=1e-12).q
    assert np.abs(q1 - 2.0).max() <= 1e-10

    q2 = safety.solve(g2, safety.optimal_backup, tol=1e-12).q
    assert q2[0, 0, 0] == pytest.approx(1.0, abs=1e-10)
    assert q2[0, 1, 0] == pytest.approx(-0.8, abs=1e-10)
    assert q2[1, 0, 0] == pytest.approx(-1.0, abs=1e-10)

    q3 = safety.solve(g3, safety.optimal_backup, tol=1e-12).q
    assert safety.state_value(q3)[0] < 0.0  # the adversary always mismatches


def test_fixed_point_from_zeros(g1, g2):
    res = safety.solve(g1, safety.optimal_backup,
                       tol=1e-10, q0=np.zeros((1, 1, 1)))
    assert res.q[0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    assert res.residual <= 1e-10
    assert res.error_bound == pytest.approx(
        g1.gamma_h * res.residual / (1 - g1.gamma_h))
    res2 = safety.solve(g2, safety.optimal_backup)
    assert res2.q[0, 1, 0] == pytest.approx(-0.8, abs=1e-8)


def test_fixed_point_budget_exhaustion():
    spec = make_random_spec(0, hazard_fraction=0.0, gamma_h=0.999)
    with pytest.raises(MaxIterExceeded) as err:
        safety.solve(spec, safety.optimal_backup, tol=1e-10, max_iter=10)
    assert err.value.iterations == 10
    assert err.value.residual > 1e-10


def test_fixed_point_rejects_bad_tol(g1):
    with pytest.raises(ValueError):
        safety.fixed_point(lambda q: q, np.zeros((1, 1, 1)), 0.9, tol=0.0)


def test_improve_policy_prefers_safe_loop(g2):
    q = safety.solve(g2, safety.optimal_backup).q
    pi = safety.improve_policy(q)
    assert pi.action[0] == 0  # value 1 beats -0.8
    assert pi.role == PROTAGONIST


def test_improve_policy_tie_breaks_low_index():
    uniform = np.zeros((3, 2, 2))
    assert safety.improve_policy(uniform).action.tolist() == [0, 0, 0]
    q = np.zeros((1, 3, 1))
    q[0, :, 0] = [0.3, 0.7, 0.7]
    assert safety.improve_policy(q).action[0] == 1


def test_extract_invariant_set_anchors(g1, g2, g3):
    inv1 = safety.extract_invariant_set(
        safety.solve(g1, safety.optimal_backup).q)
    assert inv1.member.tolist() == [True]
    assert inv1.admissible_actions(0).tolist() == [0]

    inv2 = safety.extract_invariant_set(
        safety.solve(g2, safety.optimal_backup).q)
    assert inv2.member.tolist() == [True, False]
    assert inv2.admissible_actions(0).tolist() == [0]
    assert inv2.admissible_actions(1).tolist() == []

    inv3 = safety.extract_invariant_set(
        safety.solve(g3, safety.optimal_backup).q)
    assert not inv3.member.any()


def test_boundary_ambiguity_flagging():
    q = np.zeros((2, 1, 1))
    q[0] = 1e-9
    q[1] = 0.5
    inv = safety.extract_invariant_set(q, value_error=1e-9)
    assert inv.ambiguous.tolist() == [True, False]
    assert inv.member.tolist() == [True, True]


def test_feasibility_anchors(g1, g2, g3):
    assert safety.is_feasible(safety.solve(g1, safety.optimal_backup).q)
    assert safety.is_feasible(safety.solve(g2, safety.optimal_backup).q)
    assert not safety.is_feasible(safety.solve(g3, safety.optimal_backup).q)


def test_fixed_point_bounded_by_constraint_range():
    for seed in range(5):
        spec = make_random_spec(seed)
        q = safety.solve(spec, safety.optimal_backup).q
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
            safety.solve(spec, safety.optimal_backup).q)
        constraint_set = spec.constraint >= 0
        assert (~optimal.member | constraint_set).all()
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        policy_set = safety.extract_invariant_set(
            safety.solve(spec, safety.policy_backup, pi).q)
        assert (~policy_set.member | optimal.member).all()


def test_warm_start_reuses_iterate(g2):
    cold = safety.solve(g2, safety.optimal_backup, tol=1e-12)
    warm = safety.solve(g2, safety.optimal_backup, tol=1e-12, q0=cold.q)
    assert warm.iterations <= 2
    assert np.abs(warm.q - cold.q).max() <= 1e-10
