"""Zero-sum matrix games restricted to admissible rows, solved as dense LPs.

The row player maximizes the guaranteed expected payoff over mixed strategies
supported on the admissible rows:

    max_c  c   s.t.  sum_u s(u) * payoff(u, a) >= c  for every column a,
                     s a distribution with s(u) = 0 on inadmissible rows.

After shifting the payoff positive the problem reduces to the classic pair of
LPs  min 1'y : P'y >= 1  and  max 1'z : P z <= 1, solved with a primal
simplex tableau under Bland's anticycling rule.  The column player's optimal
mixture comes out of the same tableau and certifies optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

_PIVOT_EPS = 1e-12
_CERT_TOL = 1e-6


@dataclass(frozen=True)
class RestrictedMatrixGame:
    """Payoff table (rows = protagonist actions, columns = adversary actions)
    together with the set of rows the protagonist may play."""

    payoff: np.ndarray
    admissible_rows: np.ndarray  # sorted row indices

    def __post_init__(self):
        object.__setattr__(self, "payoff",
                           np.ascontiguousarray(self.payoff, dtype=np.float64))
        rows = np.unique(np.asarray(self.admissible_rows, dtype=np.int64))
        object.__setattr__(self, "admissible_rows", rows)
        if rows.size == 0:
            raise ValueError("admissible_rows must be nonempty")
        if rows.min() < 0 or rows.max() >= self.payoff.shape[0]:
            raise ValueError("admissible row index out of range")
        if not np.isfinite(self.payoff).all():
            raise ValueError("payoff must be finite")


def restricted(payoff: np.ndarray, admissible) -> RestrictedMatrixGame:
    """Build a game from a payoff table and an admissible-row mask or index set."""
    admissible = np.asarray(admissible)
    if admissible.dtype == bool:
        admissible = np.flatnonzero(admissible)
    return RestrictedMatrixGame(payoff, admissible)


@dataclass(frozen=True)
class MatrixGameSolution:
    """Optimal mixed row strategy (zero mass on inadmissible rows) and the
    game value it guarantees against every column."""

    strategy: np.ndarray
    value: float


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
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


def solve(game: RestrictedMatrixGame) -> MatrixGameSolution:
    """Solve the restricted matrix game for the row player.

    Degenerate single-row and single-column games short-circuit to direct
    scans; otherwise the LP runs on the admissible submatrix and the strategy
    is re-expanded with zero mass on the removed rows.  Raises
    NumericalFailure when the primal/dual certificates disagree by more than
    1e-6 times max(1, payoff range of the admissible submatrix), so the test
    scales with the payoffs and is never stricter than 1e-6.
    """
    rows = game.admissible_rows
    n_rows, n_cols = game.payoff.shape
    sub = game.payoff[rows]

    strategy = np.zeros(n_rows)

    if rows.size == 1:
        # Pure row: the adversary just picks the minimizing column.
        strategy[rows[0]] = 1.0
        return MatrixGameSolution(strategy, float(sub[0].min()))

    if n_cols == 1:
        best = int(sub[:, 0].argmax())  # lowest index wins ties
        strategy[rows[best]] = 1.0
        return MatrixGameSolution(strategy, float(sub[best, 0]))

    shift = 1.0 - float(sub.min())  # entries >= 1 keep the value positive
    shifted = sub + shift

    # max 1'z : shifted z <= 1 is the column player's scaled problem; the
    # duals of its rows recover the row player's scaled strategy.
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

    # The reported value is the security level actually guaranteed by the
    # returned strategy, so the per-column bound holds by construction.
    value = float((s @ sub).min())

    # Dual certificate: the column mixture must cap every admissible row at
    # the same value.
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

    return MatrixGameSolution(strategy, value)
