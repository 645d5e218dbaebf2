"""One-game-at-a-time Bland simplex: the reference for the batched layer.

This is the per-state solver the package used before ``matrix_game`` solved
whole batches of games at once.  ``matrix_game.solve_all`` must return the
same strategies and values bit for bit, so the tests keep this copy as the
reference for that claim.
"""

import numpy as np

from safegames.errors import NumericalFailure

_PIVOT_EPS = 1e-12
_CERT_TOL = 1e-6


def _simplex_max(A, b, c):
    """Maximize c'z subject to A z <= b, z >= 0 with b >= 0.

    Returns (z, objective, duals) where duals are the multipliers of the
    row constraints read off the slack columns.  Bland's rule (lowest
    eligible index enters, ties in the ratio test resolved by lowest basis
    index) keeps the pivot sequence deterministic and cycle-free.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -c
    basis = np.arange(n, n + m)

    while True:
        enter = -1
        for j in range(n + m):
            if T[-1, j] < -_PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            break
        col = T[:m, enter]
        feasible = col > _PIVOT_EPS
        if not feasible.any():
            raise NumericalFailure("unbounded simplex tableau")
        ratios = np.full(m, np.inf)
        ratios[feasible] = T[:m, -1][feasible] / col[feasible]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + _PIVOT_EPS)
        leave = ties[np.argmin(basis[ties])]

        T[leave] /= T[leave, enter]
        for i in range(m + 1):
            if i != leave:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter

    z = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            z[bi] = T[i, -1]
    duals = T[-1, n:n + m].copy()
    return z, float(T[-1, -1]), duals


def solve_serial(payoff, admissible):
    """Return (strategy, value) of the row player restricted to the rows in
    the boolean mask ``admissible``."""
    payoff = np.asarray(payoff, dtype=np.float64)
    rows = np.flatnonzero(admissible)
    n_rows, n_cols = payoff.shape
    sub = payoff[rows]

    strategy = np.zeros(n_rows)

    if rows.size == 1:
        strategy[rows[0]] = 1.0
        return strategy, float(sub[0].min())

    if n_cols == 1:
        best = int(sub[:, 0].argmax())
        strategy[rows[best]] = 1.0
        return strategy, float(sub[best, 0])

    shift = 1.0 - float(sub.min())
    shifted = sub + shift

    z, objective, duals = _simplex_max(
        shifted, np.ones(rows.size), np.ones(n_cols))
    if objective <= 0.0:
        raise NumericalFailure("nonpositive simplex objective")
    shifted_value = 1.0 / objective

    s = np.clip(duals, 0.0, None) * shifted_value
    total = s.sum()
    if total <= 0.0:
        raise NumericalFailure("degenerate row strategy")
    s /= total
    strategy[rows] = s
    value = float((s @ sub).min())

    t = np.clip(z, 0.0, None)
    t_total = t.sum()
    if t_total <= 0.0:
        raise NumericalFailure("degenerate column strategy")
    t /= t_total
    upper = float((sub @ t).max())
    cert_tol = _CERT_TOL * max(1.0, float(sub.max() - sub.min()))
    if upper - value > cert_tol:
        raise NumericalFailure(
            f"certificate gap {upper - value:.3e} exceeds {cert_tol:.3e}")

    return strategy, value
