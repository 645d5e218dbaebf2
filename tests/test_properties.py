"""Property tests of the exact safety solve, of the oracles' verdicts on
its sets, of the dual iteration's task table and of the batched
matrix-game LP on small generated inputs.

Constraint values are drawn from the continuous range [-1, 3].  A large
h(x) can then keep the sign test nonnegative on an action into a state of
small negative value, so these games exercise the closing of the member
set as well as its sign test.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safegames import (DpiConfig, GameSpec, InfeasibleGame, dpi, matrix_game,
                       oracle, perf, safety, verify)
from lp_oracle import solve_support_enumeration
import pair_reference
import shapley_reference
import value_iteration


def test_property_tests_run_under_the_deterministic_profile():
    # conftest loads it, so a @given test that sets nothing still draws the
    # same examples on every run and stores none
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None


@st.composite
def games(draw, max_actions=3, rewarded=False, min_actions=1):
    """Games of at most five states and ``min_actions`` to ``max_actions``
    actions per player; rewards lie in [-1, 1] when ``rewarded`` and are
    zero otherwise."""
    n = draw(st.integers(1, 5))
    n_u = draw(st.integers(min_actions, max_actions))
    n_a = draw(st.integers(min_actions, max_actions))
    cells = n * n_u * n_a
    transition = draw(st.lists(st.integers(0, n - 1),
                               min_size=cells, max_size=cells))
    h = draw(st.lists(st.floats(-1.0, 3.0, allow_subnormal=False),
                      min_size=n, max_size=n))
    reward = np.zeros(cells)
    if rewarded:
        reward = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                               min_size=cells, max_size=cells))
    return GameSpec(n, n_u, n_a,
                    transition=np.reshape(transition, (n, n_u, n_a)),
                    reward=np.reshape(reward, (n, n_u, n_a)),
                    constraint=np.array(h))


def _max_min_set(spec):
    return safety.extract_invariant_set(
        safety.solve(spec), spec)


def _value_iteration(spec, tol=1e-10):
    """Max-min value iteration from zeros; returns the last iterate and its
    certified distance to the fixed point."""
    h = spec.constraint[:, None, None]
    gamma = spec.gamma_h
    q = np.zeros(spec.shape)
    while True:
        cont = q.min(axis=2).max(axis=1)
        nxt = (1.0 - gamma) * h + gamma * np.minimum(h, cont[spec.transition])
        residual = float(np.abs(nxt - q).max())
        q = nxt
        if residual <= tol:
            return q, gamma * residual / (1.0 - gamma)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(games())
def test_exact_table_within_value_iteration_bound(spec):
    for gamma_h in (0.9, 0.99, 0.999):
        strict = dataclasses.replace(spec, gamma_h=gamma_h)
        exact = safety.solve(strict)
        iterate, bound = _value_iteration(strict)
        assert np.abs(exact - iterate).max() <= bound + 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(games())
def test_exact_table_is_a_fixed_point_near_discount_one(spec):
    strict = dataclasses.replace(spec, gamma_h=0.9999)
    q = safety.solve(strict)
    residual = np.abs(safety.optimal_backup(q, strict) - q).max()
    assert residual <= 1e-12 * np.abs(spec.constraint).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(games())
def test_membership_matches_the_viability_kernel(spec):
    kernel = oracle.viability_kernel(spec)
    for gamma_h in (0.9, 0.99, 0.999):
        inv = _max_min_set(dataclasses.replace(spec, gamma_h=gamma_h))
        assert np.array_equal(inv.member, kernel), gamma_h


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(games())
def test_max_min_set_is_forward_invariant(spec):
    for gamma_h in (0.9, 0.99, 0.999):
        strict = dataclasses.replace(spec, gamma_h=gamma_h)
        violations, explored = oracle.find_invariance_violations(
            strict, _max_min_set(strict))
        assert violations == []


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(games(max_actions=2))
def test_sign_certification_matches_enumeration(spec):
    inv = _max_min_set(dataclasses.replace(spec, gamma_h=0.999))
    enum = oracle.enumerate_optimal_safety(spec)
    truth = enum.min(axis=2).max(axis=1) >= 0.0
    assert np.array_equal(inv.member, truth)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(games(rewarded=True))
def test_constrained_fixed_point_matches_the_induced_game(spec):
    inv = _max_min_set(spec)
    cells = np.broadcast_to(inv.member[:, None, None]
                            & inv.admissible[:, :, None], spec.shape)
    engine = value_iteration.solve(spec, perf.constrained_backup, inv,
                                   tol=1e-10).q
    independent = oracle.solve_induced_game(spec, inv, tol=1e-10)
    assert np.abs(engine - independent)[cells].max(initial=0.0) <= 1e-7


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(games(rewarded=True), st.sampled_from([1, 2]))
def test_dual_iteration_matches_the_induced_game(spec, n):
    cfg = DpiConfig(n=n)
    try:
        result = dpi.run(spec, cfg)
    except InfeasibleGame:
        result = None
    check = verify.induced_agreement_check(spec, result)
    assert check.passed, check.detail
    if result is None:
        return
    trace = result.trace
    counts = [s.member_count for s in trace.steps]
    assert counts == sorted(counts)
    # every Newton step after the first cuts the residual by gamma
    for prev, cur in zip(trace.steps[1:], trace.steps[2:]):
        if cur.newton > 0:
            assert cur.task_residual <= spec.gamma * prev.task_residual
    assert np.isfinite(trace.final_constrained_residual)
    if not trace.budget_exhausted:
        assert trace.steps[-1].task_residual <= cfg.tol
        assert trace.final_constrained_residual <= cfg.tol
        # the safety side ends on the max-min solve's own steps
        assert np.array_equal(result.q_h, safety.solve(spec))
        improved = safety.improve_policy(result.q_h, result.pi_h)
        assert np.array_equal(improved.action, result.pi_h.action)
    inv = result.invariant_set
    cells = np.broadcast_to(inv.member[:, None, None]
                            & inv.admissible[:, :, None], spec.shape)
    independent = oracle.solve_induced_game(spec, inv, tol=1e-10)
    assert np.abs(result.q - independent)[cells].max() <= 1e-7


@st.composite
def game_batches(draw):
    """Up to four games of at most 6x5 payoffs in [-1, 1], each with a
    nonempty admissible-row mask, and one payoff scale for the batch."""
    size = draw(st.integers(1, 4))
    n_u, n_a = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = size * n_u * n_a
    payoff = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                           min_size=cells, max_size=cells))
    masks = [draw(st.lists(st.booleans(), min_size=n_u, max_size=n_u)
                  .filter(any)) for _ in range(size)]
    scale = draw(st.sampled_from((1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)))
    return np.reshape(payoff, (size, n_u, n_a)), np.array(masks), scale


def _linprog_value(payoff, rows):
    """max v s.t. s' payoff[rows] >= v on every column, s a distribution."""
    from scipy.optimize import linprog
    sub = payoff[rows]
    k, n = sub.shape
    res = linprog(np.r_[np.zeros(k), -1.0],
                  A_ub=np.c_[-sub.T, np.ones(n)], b_ub=np.zeros(n),
                  A_eq=np.r_[np.ones(k), 0.0][None], b_eq=[1.0],
                  bounds=[(0, None)] * k + [(None, None)], method="highs")
    assert res.status == 0
    return -res.fun


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(game_batches())
def test_batched_lp_values_match_support_enumeration(batch):
    payoff, admissible, scale = batch
    strategy, value, _ = matrix_game.solve_all(scale * payoff, admissible)
    for b in range(payoff.shape[0]):
        rows = np.flatnonzero(admissible[b])
        _, reference = solve_support_enumeration(payoff[b], rows)
        assert abs(value[b] / scale - reference) <= 1e-8
        assert not strategy[b][~admissible[b]].any()
        assert abs(strategy[b].sum() - 1.0) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(game_batches())
def test_batched_lp_values_match_linprog(batch):
    pytest.importorskip("scipy")
    payoff, admissible, scale = batch
    value = matrix_game.solve_all(scale * payoff, admissible)[1]
    for b in range(payoff.shape[0]):
        reference = _linprog_value(payoff[b], np.flatnonzero(admissible[b]))
        assert abs(value[b] / scale - reference) <= 1e-9


_SCALES = st.sampled_from((1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8))


def _residual(spec, inv, q):
    return float(np.abs(perf.constrained_backup(q, spec, inv) - q).max())


# Shapley iteration from zero takes about 1 / (1 - gamma) sweeps per e-fold
# of its error, 4-6 s a game at gamma 0.999; that discount is drawn against
# the dual iteration below.
@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(games(rewarded=True, min_actions=2), _SCALES)
def test_strategy_iteration_matches_shapley_iteration(gamma, spec, scale):
    spec = dataclasses.replace(spec, reward=scale * spec.reward, gamma=gamma)
    inv = _max_min_set(spec)
    cells = np.broadcast_to(inv.admissible[:, :, None], spec.shape)
    independent = oracle.solve_induced_game(spec, inv)
    reference = shapley_reference.solve_induced_game(spec, inv)
    rho, rho_reference = (_residual(spec, inv, independent),
                          _residual(spec, inv, reference))
    rounding = 8 * np.finfo(float).eps * np.abs(independent).max()
    assert np.abs(independent - reference)[cells].max(initial=0.0) <= (
        rho + rho_reference + rounding) / (1.0 - gamma)
    # no further from the fixed point than Shapley's stop, up to rounding
    assert rho <= rho_reference + rounding


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(games(rewarded=True, min_actions=2), _SCALES)
def test_dual_iteration_matches_strategy_iteration_near_discount_one(
        spec, scale):
    spec = dataclasses.replace(spec, reward=scale * spec.reward, gamma=0.999)
    try:
        result = dpi.run(spec)
    except InfeasibleGame:
        return
    check = verify.induced_agreement_check(spec, result)
    assert check.passed, check.detail


@st.composite
def pure_pairs(draw, spec):
    """One-hot row (n_states, n_u) and column (n_states, n_a) strategies."""
    n = spec.n_states
    u = draw(st.lists(st.integers(0, spec.n_u - 1), min_size=n, max_size=n))
    a = draw(st.lists(st.integers(0, spec.n_a - 1), min_size=n, max_size=n))
    return np.eye(spec.n_u)[u], np.eye(spec.n_a)[a]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data(), games(rewarded=True),
       st.sampled_from((0.5, 0.9, 0.99, 0.999, 0.9999)), _SCALES)
def test_pure_pair_evaluation_matches_a_dense_solve(data, spec, gamma, scale):
    spec = dataclasses.replace(spec, reward=scale * spec.reward, gamma=gamma)
    row, column = data.draw(pure_pairs(spec))
    # a budget of 0 sweeps: a pure pair is evaluated without any
    got = perf.evaluate_pair(spec, row, column, np.zeros(spec.n_states),
                             tol=1e-10, max_iter=0)
    reference = pair_reference.evaluate_pair(spec, row, column)
    # Both round to a few eps * max|v| / (1 - gamma): the dense solve through
    # the condition number of I - gamma P, at most 2 / (1 - gamma), and the
    # doubling through gamma ** 2**k, each squaring doubling its relative
    # error.  Drawn worst: 0.07 of that at gamma 0.9999.
    bound = np.abs(spec.reward).max() / (1.0 - gamma)
    assert np.abs(got - reference).max() <= (
        8 * np.finfo(float).eps * bound / (1.0 - gamma))
