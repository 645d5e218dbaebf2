"""Dual iteration of a safety policy and a task policy.

The safety side takes up to ``n`` steps per outer step of
``safety.policy_iteration``, each a strict improvement evaluated exactly;
``safety.solve(spec)`` returns that iteration's last table, so a run that
meets its exit test returns the max-min table bit for bit.  Safety values
grow monotonically toward it, and so does the sign test's set; closing it
(``safety.extract_invariant_set``) is monotone in the set it starts from,
so the invariant set only ever expands.  Feasibility is decided once, on
the returned safety table: a game whose returned invariant set is empty
raises InfeasibleGame.

The task side solves the restricted game: member states play their
admissible actions, every other state plays its safety action.  Its table
is always q = r + gamma * w[x'] for a state vector w.  Each outer step
solves every state's matrix game on q in one ``matrix_game.solve_all``
batch for both players (``perf.restricted_games``); the row strategies are
the task policy (a point mass on the safety action off the member set),
and the values give the table's residual ||r + gamma * value[x'] - q||
under the restricted backup.  The step after it is one safeguarded Newton
step of Pollatschek and Avi-Itzhak (1969), ``perf.newton_step``: the pair
of row and column strategies is evaluated: exactly, by pointer doubling,
when both are pure at every state (as on the push grids), and otherwise by
sweeps from the current w.  Every step
after the first one, from w = 0, passes the safeguard whether or not its
safety rounds switched actions: it must contract the residual by gamma, or
it is shortened and at last replaced by one restricted backup.  The
invariant set and the restricted game's rows are rebuilt only after a
switch, the only time the safety table changes.  The loop exits once a
step's safety rounds switch nothing and the residual is at most ``tol``,
so ``tol`` bounds the returned table's residual; ``verify`` certifies that
table against the strategy-iteration oracle.

The matrix games model simultaneous play: the adversary responds to the
policy mixture rather than to the realized action.  On member states the
restricted game's fixed point is the constrained fixed point of
``perf.constrained_backup``; the trace reports its residual on the returned
table from the last batch, whose member games are the backup's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import perf, safety
from .errors import InfeasibleGame
from .game import DetPolicy, GameSpec, MixedPolicy


@dataclass(frozen=True)
class DpiConfig:
    m: int = 30           # outer iterations (budget; early exit on convergence)
    n: int = 2            # safety rounds per outer iteration
    tol: float = 1e-10    # exit bound on the task table's residual; safety
                          # solves are exact
    max_iter: int = safety.DEFAULT_MAX_ITER  # improvement and sweep budget


@dataclass
class DpiStep:
    """Certification record for one outer iteration."""

    safety_delta: float        # sup-norm change of the safety table
    safety_decrease: float     # largest pointwise decrease of the safety table
    member_count: int
    task_residual: float       # task table's residual under the restricted backup
    task_delta: float          # sup-norm change of the task table
    lp_values: np.ndarray      # per-state matrix-game value, NaN off-members
    newton: float = 0.0        # accepted Newton step length, 0 for a backup


@dataclass
class DpiTrace:
    steps: List[DpiStep] = field(default_factory=list)
    final_constrained_residual: float = np.nan
    budget_exhausted: bool = False  # all m steps ran without meeting the exit test


@dataclass(frozen=True)
class DpiResult:
    pi: MixedPolicy            # task policy
    pi_h: DetPolicy            # safety policy
    q: np.ndarray              # task table for pi
    q_h: np.ndarray            # safety table for pi_h
    trace: DpiTrace
    invariant_set: safety.InvariantSet


def run(spec: GameSpec, cfg: DpiConfig = DpiConfig()) -> DpiResult:
    """Run the dual iteration and return the final artifacts plus the trace.

    The loop exits once a step's safety rounds switch nothing and the task
    table's residual under the restricted backup is at most ``cfg.tol``.
    Raises ValueError when ``cfg.m``, ``cfg.n`` or ``cfg.max_iter`` is below
    1 or ``cfg.tol`` is not positive and finite, InfeasibleGame when the
    returned invariant set is empty, and propagates MaxIterExceeded from
    each player's improvement budget in the safety policy iteration and
    the sweep budget of each mixed pair's evaluation (all
    ``cfg.max_iter``); a pure pair takes no sweeps.
    """
    if min(cfg.m, cfg.n, cfg.max_iter) < 1:
        raise ValueError("m, n and max_iter must be at least 1")
    if not 0.0 < cfg.tol < np.inf:
        raise ValueError("tol must be positive and finite")

    safety_steps = safety.policy_iteration(spec, cfg.max_iter)
    pi_h, q_h = next(safety_steps)
    w = np.zeros(spec.n_states)
    trace = DpiTrace()
    prev_q_h = prev_q = None

    for k in range(cfg.m):
        switched = False
        for pi_h, q_h in itertools.islice(safety_steps, cfg.n):
            switched = True
        # q_h, and with it the set and the rows, change only on a switch.
        if k == 0 or switched:
            inv = safety.extract_invariant_set(q_h, spec)
            rows = inv.admissible.copy()
            off = ~inv.member
            rows[off, pi_h.action[off]] = True

        if k == 0:
            newton, games = 0.0, perf.restricted_games(spec, w, rows)
        else:
            w, newton, games = perf.newton_step(
                spec, rows, w, games, cfg.tol, cfg.max_iter, first=k == 1)
        q, s, _, values, residual = games

        if prev_q_h is None:
            safety_delta, safety_decrease, task_delta = np.inf, 0.0, np.inf
        else:
            change = q_h - prev_q_h
            safety_delta = float(np.abs(change).max())
            safety_decrease = max(0.0, -float(change.min()))
            task_delta = float(np.abs(q - prev_q).max())
        prev_q_h, prev_q = q_h, q
        trace.steps.append(DpiStep(
            safety_delta=safety_delta, safety_decrease=safety_decrease,
            member_count=inv.member_count(), task_residual=residual,
            task_delta=task_delta,
            lp_values=np.where(inv.member, values, np.nan), newton=newton))
        if not switched and residual <= cfg.tol:
            break
    else:
        trace.budget_exhausted = True

    if not inv.member.any():
        raise InfeasibleGame(
            "no state admits persistent safety: "
            "the returned invariant set is empty")
    change = np.abs(spec.reward + spec.gamma * values[spec.transition] - q)
    trace.final_constrained_residual = float(change.max(
        where=inv.admissible[:, :, None], initial=0.0))

    return DpiResult(pi=MixedPolicy(s), pi_h=pi_h, q=q, q_h=q_h, trace=trace,
                     invariant_set=inv)
