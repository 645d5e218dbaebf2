import numpy as np
import pytest

from safegames.errors import NumericalFailure
from safegames.matrix_game import RestrictedMatrixGame, restricted, solve
from lp_oracle import solve_support_enumeration

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_matching_pennies():
    sol = solve(restricted(PENNIES, [0, 1]))
    assert abs(sol.value) <= 1e-9
    assert np.abs(sol.strategy - 0.5).max() <= 1e-9


def test_single_admissible_row_forces_column_min():
    sol = solve(restricted(PENNIES, [1]))
    assert sol.strategy.tolist() == [0.0, 1.0]
    assert sol.value == -1.0


def test_single_column_takes_best_row():
    payoff = np.array([[0.3], [0.7], [0.7]])
    sol = solve(restricted(payoff, [0, 1, 2]))
    assert sol.value == 0.7
    assert sol.strategy.tolist() == [0.0, 1.0, 0.0]  # lowest-index tie break


def test_inadmissible_rows_carry_zero_mass():
    payoff = np.array([[5.0, 5.0], [0.0, 1.0], [1.0, 0.0]])
    sol = solve(restricted(payoff, [1, 2]))
    assert sol.strategy[0] == 0.0
    assert abs(sol.strategy.sum() - 1.0) <= 1e-12


def test_empty_admissible_rejected():
    with pytest.raises(ValueError):
        RestrictedMatrixGame(PENNIES, np.array([], dtype=int))


def test_random_games_match_support_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(60):
        payoff = rng.uniform(-1.0, 1.0, (3, 3))
        sol = solve(restricted(payoff, [0, 1, 2]))
        strategy, value = solve_support_enumeration(payoff, [0, 1, 2])
        assert abs(sol.value - value) <= 1e-8
        assert np.abs(sol.strategy - strategy).max() <= 1e-8


def test_restricted_random_games_match_support_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(40):
        payoff = rng.uniform(-2.0, 2.0, (4, 3))
        rows = sorted(rng.choice(4, size=2, replace=False).tolist())
        sol = solve(restricted(payoff, rows))
        strategy, value = solve_support_enumeration(payoff, rows)
        assert abs(sol.value - value) <= 1e-8
        assert np.abs(sol.strategy - strategy).max() <= 1e-8


def test_pure_strategy_sandwich():
    rng = np.random.default_rng(2)
    for _ in range(100):
        payoff = rng.uniform(-3.0, 3.0, (4, 4))
        rows = sorted(rng.choice(4, size=int(rng.integers(1, 5)),
                                 replace=False).tolist())
        sol = solve(restricted(payoff, rows))
        pure_low = payoff[rows].min(axis=1).max()
        pure_high = payoff[rows].max(axis=0).min()
        assert pure_low - 1e-9 <= sol.value <= pure_high + 1e-9


def test_security_level_holds_per_column():
    rng = np.random.default_rng(3)
    for _ in range(50):
        payoff = rng.uniform(-1.0, 1.0, (3, 5))
        sol = solve(restricted(payoff, [0, 1, 2]))
        guarantees = sol.strategy @ payoff
        assert guarantees.min() >= sol.value - 1e-9


def test_scaling_covariance():
    rng = np.random.default_rng(4)
    payoff = rng.uniform(-1.0, 1.0, (3, 3))
    base = solve(restricted(payoff, [0, 1, 2]))
    scaled = solve(restricted(4.0 * payoff, [0, 1, 2]))
    assert abs(scaled.value - 4.0 * base.value) <= 1e-8
    assert np.argmax(scaled.strategy) == np.argmax(base.strategy)


def test_shift_invariance():
    rng = np.random.default_rng(5)
    payoff = rng.uniform(-1.0, 1.0, (3, 3))
    base = solve(restricted(payoff, [0, 1, 2]))
    shifted = solve(restricted(payoff + 2.5, [0, 1, 2]))
    assert abs(shifted.value - (base.value + 2.5)) <= 1e-9
    assert np.abs(shifted.strategy - base.strategy).max() <= 1e-9


def test_non_finite_payoff_rejected():
    with pytest.raises(ValueError):
        RestrictedMatrixGame(np.array([[np.inf, 0.0]]), np.array([0]))


def test_certificate_tolerance_scales_with_the_payoffs():
    # The same 300 random 5x5 games at every scale; an absolute 1e-6
    # certificate tolerance rejected 2 of them at 1e9 (gaps near 3e-6).
    # Support enumeration checks the first 60, the rest are checked for
    # scale covariance against the unscaled engine solve.
    rng = np.random.default_rng(0)
    games = [rng.uniform(-1.0, 1.0, (5, 5)) for _ in range(300)]
    reference = [solve_support_enumeration(p, range(5)) for p in games[:60]]
    unscaled = [solve(restricted(p, range(5))) for p in games]
    for scale in (1e-6, 1e-3, 1e3, 1e6, 1e9):
        for k, payoff in enumerate(games):
            sol = solve(restricted(scale * payoff, range(5)))
            strategy, value = (reference[k] if k < 60 else
                               (unscaled[k].strategy, unscaled[k].value))
            assert abs(sol.value / scale - value) <= 1e-8
            assert np.abs(sol.strategy - strategy).max() <= 1e-8
