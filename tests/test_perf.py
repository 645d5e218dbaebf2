import numpy as np
import pytest

from safegames import DpiConfig, MixedPolicy, NonMemberSuccessor
from safegames import dpi, perf, safety
from safegames.safety import InvariantSet
from conftest import make_random_spec
import policies
import value_iteration


def _linear_solve_pair_value(spec, pi, mu):
    """Exact fixed point of the pair backup via the induced linear system."""
    n = spec.n_states * spec.n_u * spec.n_a

    def flat(x, u, a):
        return (x * spec.n_u + u) * spec.n_a + a

    A = np.eye(n)
    b = np.zeros(n)
    for x in range(spec.n_states):
        for u in range(spec.n_u):
            for a in range(spec.n_a):
                row = flat(x, u, a)
                b[row] = spec.reward[x, u, a]
                y = spec.transition[x, u, a]
                for u2 in range(spec.n_u):
                    for a2 in range(spec.n_a):
                        A[row, flat(y, u2, a2)] -= (
                            spec.gamma * pi.prob[y, u2] * mu.prob[y, a2])
    return np.linalg.solve(A, b).reshape(spec.shape)


def test_pair_backup_g1_geometric_series(g1):
    pi = policies.uniform(1, 1)
    mu = policies.uniform(1, 1)
    q = np.full((1, 1, 1), 2.0)
    assert np.array_equal(perf.pair_backup(q, g1, pi, mu), q)  # 1 + 0.5*2
    assert np.array_equal(perf.pair_backup(np.zeros((1, 1, 1)), g1, pi, mu),
                          np.ones((1, 1, 1)))


def test_pair_fixed_point_matches_linear_solve(g2_rewarded):
    pi = policies.uniform(2, 2)
    mu = policies.uniform(2, 1)
    expected = _linear_solve_pair_value(g2_rewarded, pi, mu)
    got = perf.fixed_point(
        lambda q: perf.pair_backup(q, g2_rewarded, pi, mu),
        np.zeros(g2_rewarded.shape), tol=1e-12)
    assert np.abs(got.q - expected).max() <= 1e-8


def test_pair_fixed_point_matches_linear_solve_random():
    rng = np.random.default_rng(3)
    spec = make_random_spec(11, n_states=6, n_u=2, n_a=2)  # 24 cells
    prob_u = rng.random((6, 2)) + 0.1
    pi = MixedPolicy(prob_u / prob_u.sum(axis=1, keepdims=True))
    prob_a = rng.random((6, 2)) + 0.1
    mu = MixedPolicy(prob_a / prob_a.sum(axis=1, keepdims=True))
    expected = _linear_solve_pair_value(spec, pi, mu)
    got = perf.fixed_point(lambda q: perf.pair_backup(q, spec, pi, mu),
                           np.zeros(spec.shape), tol=1e-12)
    assert np.abs(got.q - expected).max() <= 1e-8


def test_policy_backup_singleton_adversary_matches_pair(g1):
    pi = policies.uniform(1, 1)
    mu = policies.uniform(1, 1)
    q = np.random.default_rng(0).uniform(-1, 1, (1, 1, 1))
    assert np.array_equal(perf.policy_backup(q, g1, pi),
                          perf.pair_backup(q, g1, pi, mu))


def test_policy_backup_constant_table(g3):
    pi = policies.uniform(2, 2)
    q = np.full(g3.shape, 3.0)
    out = perf.policy_backup(q, g3, pi)
    assert np.abs(out - (g3.reward + g3.gamma * 3.0)).max() <= 1e-12


def test_policy_eval_matching_reward(g3_matching_reward):
    # Independent plain iteration of the same backup.
    spec = g3_matching_reward
    pi = policies.uniform(2, 2)
    q = np.zeros(spec.shape)
    for _ in range(2000):
        nxt = perf.policy_backup(q, spec, pi)
        if np.abs(nxt - q).max() <= 1e-13:
            break
        q = nxt
    res = value_iteration.solve(spec, perf.policy_backup, pi, tol=1e-13)
    assert np.abs(res.q - q).max() <= 1e-10
    # the adversary minimizes each action's value separately, so the
    # continuation at x0 is the mixture of per-action worst cases (both 0)
    assert res.q[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
    assert res.q[0, 0, 1] == pytest.approx(0.0, abs=1e-9)


def test_minimax_backup_dominates_per_action_backup():
    rng = np.random.default_rng(5)
    for seed in range(5):
        spec = make_random_spec(seed)
        prob = rng.random((spec.n_states, spec.n_u)) + 0.05
        pi = MixedPolicy(prob / prob.sum(axis=1, keepdims=True))
        q = rng.uniform(-2, 2, spec.shape)
        assert (perf.minimax_policy_backup(q, spec, pi)
                >= perf.policy_backup(q, spec, pi) - 1e-12).all()


def test_minimax_backup_equals_per_action_for_point_mass(g2_rewarded):
    pi = policies.point_mass(np.array([0, 0]), 2)
    q = np.random.default_rng(1).uniform(-1, 1, g2_rewarded.shape)
    assert np.abs(perf.minimax_policy_backup(q, g2_rewarded, pi)
                  - perf.policy_backup(q, g2_rewarded, pi)).max() <= 1e-12


def test_constrained_fixed_point_g1(g1):
    inv = safety.extract_invariant_set(
        safety.solve(g1), g1)
    res = value_iteration.solve(g1, perf.constrained_backup, inv, tol=1e-12)
    assert res.q[0, 0, 0] == pytest.approx(2.0, abs=1e-9)  # 1 / (1 - 0.5)


def test_constrained_fixed_point_g2(g2_rewarded):
    inv = safety.extract_invariant_set(
        safety.solve(g2_rewarded), g2_rewarded)
    res = value_iteration.solve(g2_rewarded, perf.constrained_backup, inv,
                                tol=1e-12)
    assert res.q[0, 0, 0] == pytest.approx(1.0 / (1.0 - g2_rewarded.gamma),
                                           abs=1e-8)


def test_constrained_idempotent_on_member_cells():
    spec = make_random_spec(3, n_states=6, n_u=2, n_a=2)
    inv = safety.extract_invariant_set(
        safety.solve(spec), spec)
    assert inv.member.any()
    first = value_iteration.solve(spec, perf.constrained_backup, inv,
                                  tol=1e-11).q
    second = value_iteration.solve(spec, perf.constrained_backup, inv,
                                   tol=1e-11, q0=first).q
    cells = np.broadcast_to(inv.member[:, None, None]
                            & inv.admissible[:, :, None], spec.shape)
    assert np.abs((first - second)[cells]).max() <= 1e-9


def test_constrained_leaves_nonmember_rows_untouched(g2_rewarded):
    inv = safety.extract_invariant_set(
        safety.solve(g2_rewarded), g2_rewarded)
    q0 = np.full(g2_rewarded.shape, 7.0)
    out = perf.constrained_backup(q0, g2_rewarded, inv)
    assert (out[1] == 7.0).all()          # non-member state untouched
    assert (out[0, 1, :] == 7.0).all()    # inadmissible action untouched
    assert (out[0, 0, :] != 7.0).all()


def test_constrained_rejects_stale_invariant_set(g2_rewarded):
    # Claim x0's exit action is admissible: its successor x1 is not a member.
    bad = InvariantSet(member=np.array([True, False]),
                       admissible=np.array([[False, True], [False, False]]))
    with pytest.raises(NonMemberSuccessor):
        perf.constrained_backup(np.zeros(g2_rewarded.shape), g2_rewarded, bad)


def _first_exit_message(spec, inv):
    """Reference scan: the first admissible cell, in (x, u, a) order, whose
    successor is not a member."""
    for x in np.flatnonzero(inv.member):
        for u in np.flatnonzero(inv.admissible[x]):
            for a in range(spec.n_a):
                succ = spec.transition[x, u, a]
                if not inv.member[succ]:
                    return (f"admissible action {u} at member state {x} "
                            f"reaches non-member state {succ}")
    return None


def test_constrained_names_the_first_exit_of_a_stale_set():
    spec = make_random_spec(2)
    inv = safety.extract_invariant_set(
        safety.solve(spec), spec)
    assert _first_exit_message(spec, inv) is None
    # Mark two inadmissible cells admissible; each reaches a non-member.
    exits = [(x, u) for x in np.flatnonzero(inv.member)
             for u in range(spec.n_u)
             if not inv.member[spec.transition[x, u]].all()]
    admissible = inv.admissible.copy()
    for x, u in exits[:2]:
        admissible[x, u] = True
    stale = InvariantSet(inv.member, admissible)
    expected = _first_exit_message(spec, stale)
    assert expected is not None
    with pytest.raises(NonMemberSuccessor) as err:
        perf.constrained_backup(np.zeros(spec.shape), spec, stale)
    assert str(err.value) == expected


def test_perf_fixed_point_bound():
    for seed in range(4):
        spec = make_random_spec(seed, n_states=6, n_u=2, n_a=2)
        pi = policies.uniform(6, 2)
        q = value_iteration.solve(spec, perf.policy_backup, pi).q
        bound = np.abs(spec.reward).max() / (1.0 - spec.gamma)
        assert np.abs(q).max() <= bound + 1e-9


def test_perf_contraction_sweep():
    rng = np.random.default_rng(6)
    for seed in range(4):
        spec = make_random_spec(seed)
        prob = rng.random((spec.n_states, spec.n_u)) + 0.05
        pi = MixedPolicy(prob / prob.sum(axis=1, keepdims=True))
        prob_a = rng.random((spec.n_states, spec.n_a)) + 0.05
        mu = MixedPolicy(prob_a / prob_a.sum(axis=1, keepdims=True))
        for _ in range(40):
            q1 = rng.uniform(-2, 2, spec.shape)
            q2 = rng.uniform(-2, 2, spec.shape)
            bound = spec.gamma * np.abs(q1 - q2).max() + 1e-12
            assert np.abs(perf.pair_backup(q1, spec, pi, mu)
                          - perf.pair_backup(q2, spec, pi, mu)).max() <= bound
            assert np.abs(perf.policy_backup(q1, spec, pi)
                          - perf.policy_backup(q2, spec, pi)).max() <= bound


def test_state_value_definition():
    # Simultaneous play: the adversary answers the mixture, not each action.
    pi = policies.uniform(2, 2)
    q = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 4.0], [6.0, 0.0]]])
    # The per-action form, sum over u of min over a, would give [0.0, 1.0].
    assert perf.state_value(q, pi).tolist() == [0.5, 2.0]


def test_state_value_matches_last_matrix_game_values():
    # The task policy mixes here; the LP value is the simultaneous-play one.
    spec = make_random_spec(5)
    result = dpi.run(spec, DpiConfig(m=40, n=2, tol=1e-11))
    member = result.invariant_set.member
    lp_values = result.trace.steps[-1].lp_values
    values = perf.state_value(result.q, result.pi)
    assert np.abs(values[member] - lp_values[member]).max() <= 1e-8
