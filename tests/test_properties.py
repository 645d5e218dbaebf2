"""Property tests of the exact safety solve on small generated games.

Constraint values come from a small set of levels, so on games of at most
five states a state outside the viability kernel reaches a negative level
within five steps and its value at gamma_h = 0.999 is clearly negative.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from safegames import GameSpec, oracle, safety

LEVELS = (-1.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def games(draw):
    n = draw(st.integers(1, 5))
    n_u = draw(st.integers(1, 3))
    n_a = draw(st.integers(1, 3))
    cells = n * n_u * n_a
    transition = draw(st.lists(st.integers(0, n - 1),
                               min_size=cells, max_size=cells))
    h = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
    return GameSpec(n, n_u, n_a,
                    transition=np.reshape(transition, (n, n_u, n_a)),
                    reward=np.zeros((n, n_u, n_a)), constraint=np.array(h))


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
        exact = safety.solve(strict, safety.optimal_backup).q
        iterate, bound = _value_iteration(strict)
        assert np.abs(exact - iterate).max() <= bound + 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(games())
def test_exact_table_is_a_fixed_point_near_discount_one(spec):
    strict = dataclasses.replace(spec, gamma_h=0.9999)
    q = safety.solve(strict, safety.optimal_backup).q
    residual = np.abs(safety.optimal_backup(q, strict) - q).max()
    assert residual <= 1e-12 * np.abs(spec.constraint).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(games())
def test_membership_matches_the_viability_kernel(spec):
    strict = dataclasses.replace(spec, gamma_h=0.999)
    res = safety.solve(strict, safety.optimal_backup)
    inv = safety.extract_invariant_set(res.q, value_error=res.error_bound)
    kernel = oracle.viability_kernel(spec)
    assert ((inv.member == kernel) | inv.ambiguous).all()
