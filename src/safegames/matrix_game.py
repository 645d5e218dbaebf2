"""Zero-sum matrix games restricted to admissible rows, solved as dense LPs.

The row player maximizes the guaranteed expected payoff over mixed strategies
supported on the admissible rows:

    max_c  c   s.t.  sum_u s(u) * payoff(u, a) >= c  for every column a,
                     s a distribution with s(u) = 0 on inadmissible rows.

After shifting the payoff positive the problem reduces to the classic pair of
LPs  min 1'y : P'y >= 1  and  max 1'z : P z <= 1, solved with a primal
simplex tableau under Bland's anticycling rule.  The column player's optimal
mixture comes out of the same tableau, certifies optimality and is returned
with the row strategy.

``solve_all`` solves a batch of games at once: games with one admissible row
or one column are direct scans, and the rest are grouped by admissible-row
count, so each group is one stack of equal-shape tableaux that pivots as a
single array.  Every tableau follows the pivot sequence it would follow
alone, so a game's strategy and value do not depend on the batch around it.
``solve`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NumericalFailure

_PIVOT_EPS = 1e-12
_CERT_TOL = 1e-6
_CHUNK = 256  # tableaux per simplex array, which bounds its memory


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


def _fail_if(bad: np.ndarray, games: np.ndarray, message: str) -> None:
    """Raise NumericalFailure naming the first game whose flag is set."""
    if bad.any():
        raise NumericalFailure(f"game {games[np.argmax(bad)]}: {message}")


def _simplex_max(A: np.ndarray, games: np.ndarray):
    """Maximize 1'z subject to A z <= 1, z >= 0 for each stacked A (c, m, n).

    Returns the final tableaux (c, m+1, n+m+1) and bases (c, m); the duals
    of the row constraints sit in the slack columns of the cost row.  Bland's
    rule (lowest eligible index enters, ties in the ratio test resolved by
    lowest basis index) keeps each tableau's pivot sequence deterministic
    and cycle-free; a tableau stops pivoting once it is optimal.
    """
    c, m, n = A.shape
    T = np.zeros((c, m + 1, n + m + 1))
    T[:, :m, :n] = A
    T[:, :m, n:n + m] = np.eye(m)
    T[:, :m, -1] = 1.0
    T[:, -1, :n] = -1.0
    basis = np.empty((c, m), dtype=np.int64)  # np.tile leaves ~56 traced
    basis[:] = np.arange(n, n + m)             # bytes alive per call
    active = np.arange(c)

    while True:
        eligible = T[active, -1, :-1] < -_PIVOT_EPS
        going = eligible.any(axis=1)
        active, enter = active[going], eligible[going].argmax(axis=1)
        if active.size == 0:
            return T, basis
        factor = T[active, :, enter]
        feasible = factor[:, :m] > _PIVOT_EPS
        _fail_if(~feasible.any(axis=1), games[active],
                 "unbounded simplex tableau")
        ratios = np.full((active.size, m), np.inf)
        np.divide(T[active, :m, -1], factor[:, :m], out=ratios, where=feasible)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + _PIVOT_EPS
        leave = np.where(ties, basis[active], n + m).argmin(axis=1)

        # Row operations one tableau row at a time, on the pivoting tableaux
        # only; the leaving row is overwritten with the pivot row afterwards.
        lanes = np.arange(active.size)
        piv = T[active, leave] / factor[lanes, leave][:, None]
        rows = slice(None) if active.size == c else active
        for i in range(m + 1):
            T[rows, i] -= factor[:, i, None] * piv
        T[active, leave] = piv
        basis[active, leave] = enter


def _solve_lp(sub: np.ndarray,
              games: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row strategies (c, k), values (c,) and column strategies (c, n) of
    stacked k-row, n-column games."""
    c, k, n = sub.shape
    low = sub.min(axis=(1, 2))
    # Entries >= 1 keep the value positive.  max 1'z : shifted z <= 1 is the
    # column player's scaled problem; the duals of its rows recover the row
    # player's scaled strategy.
    T, basis = _simplex_max(sub + (1.0 - low)[:, None, None], games)
    objective = T[:, -1, -1]
    _fail_if(objective <= 0.0, games, "nonpositive simplex objective")

    s = np.clip(T[:, -1, n:n + k], 0.0, None) * (1.0 / objective)[:, None]
    total = s.sum(axis=1)
    _fail_if(total <= 0.0, games, "degenerate row strategy")
    s /= total[:, None]
    # The reported value is the security level actually guaranteed by the
    # returned strategy, so the per-column bound holds by construction.
    # matmul runs the same product per game as a lone ``s @ sub``.
    value = np.matmul(s[:, None, :], sub)[:, 0].min(axis=1)

    # Dual certificate: the column mixture must cap every admissible row at
    # the same value, within 1e-6 times max(1, payoff range).
    z = np.zeros((c, n))
    g, i = np.nonzero(basis < n)
    z[g, basis[g, i]] = T[g, i, -1]
    t = np.clip(z, 0.0, None)
    t_total = t.sum(axis=1)
    _fail_if(t_total <= 0.0, games, "degenerate column strategy")
    t /= t_total[:, None]
    gap = np.matmul(sub, t[:, :, None])[:, :, 0].max(axis=1) - value
    cert_tol = _CERT_TOL * np.maximum(1.0, sub.max(axis=(1, 2)) - low)
    bad = gap > cert_tol
    if bad.any():
        j = np.argmax(bad)
        raise NumericalFailure(f"game {games[j]}: certificate gap {gap[j]:.3e} "
                               f"exceeds {cert_tol[j]:.3e}")
    return s, value, t


def solve_all(payoff: np.ndarray, admissible: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a batch of restricted matrix games for both players.

    ``payoff`` is (B, n_u, n_a) and ``admissible`` a (B, n_u) boolean row
    mask.  Returns the optimal row strategies (B, n_u), with zero mass on
    inadmissible rows, the values (B,) and the column player's optimal
    strategies (B, n_a).  A game without admissible rows gets zero
    strategies and a NaN value.
    Single-row and single-column games are direct scans (a single row meets
    its lowest-index minimizing column); the others run the simplex on their
    admissible rows, taken in index order, grouped by row count in chunks of
    at most 256 games, and the column strategy is the dual of the same
    tableau.  Raises NumericalFailure, naming the game's index in the batch,
    when a game's primal/dual certificates disagree by more than 1e-6 times
    max(1, payoff range of its admissible submatrix), so the test scales
    with the payoffs.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    admissible = np.asarray(admissible, dtype=bool)
    n_games, n_rows, n_cols = payoff.shape
    if admissible.shape != (n_games, n_rows):
        raise ValueError("admissible must be one row mask per game")
    if not np.isfinite(payoff).all():
        raise ValueError("payoff must be finite")
    counts = admissible.sum(axis=1)
    strategy = np.zeros((n_games, n_rows))
    column = np.zeros((n_games, n_cols))
    value = np.full(n_games, np.nan)

    # One admissible row meets its minimizing column; with one column the
    # best admissible row wins, the lowest index on ties.
    scan = np.flatnonzero(counts == 1 if n_cols > 1 else counts > 0)
    low = payoff[scan].min(axis=2)
    best = np.where(admissible[scan], low, -np.inf).argmax(axis=1)
    strategy[scan, best] = 1.0
    column[scan, payoff[scan, best].argmin(axis=1)] = 1.0
    value[scan] = low[np.arange(scan.size), best]

    for k in np.unique(counts[counts > 1]) if n_cols > 1 else ():
        games = np.flatnonzero(counts == k)
        rows = np.nonzero(admissible[games])[1].reshape(games.size, k)
        for part in range(0, games.size, _CHUNK):
            g = games[part:part + _CHUNK]
            r = rows[part:part + _CHUNK]
            strategy[g[:, None], r], value[g], column[g] = _solve_lp(
                payoff[g[:, None], r], g)
    return strategy, value, column


def solve(game: RestrictedMatrixGame) -> MatrixGameSolution:
    """Solve one restricted matrix game: ``solve_all`` on a batch of one."""
    mask = np.zeros(game.payoff.shape[0], dtype=bool)
    mask[game.admissible_rows] = True
    strategy, value, _ = solve_all(game.payoff[None], mask[None])
    return MatrixGameSolution(strategy[0], float(value[0]))
