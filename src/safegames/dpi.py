"""Dual iteration of a safety policy and a task policy.

The safety table always belongs to the current safety policy: it starts as
the exact evaluation of the all-zeros policy, and each of the ``n`` safety
rounds per outer step improves the policy (switching only on strict
improvement) and evaluates it exactly with ``safety.solve``; a round that
switches nothing ends the step's safety rounds, and no safety solve is
warm-started.  Each outer step then evaluates the task policy and
improves it: member states get the matrix-game strategy over their
admissible actions (``perf.member_games``), non-member states copy the
safety policy as a point mass.  Safety values grow monotonically toward the
max-min fixed point, so the invariant set only ever expands.  Feasibility is
decided once, on the returned safety table: a game whose returned invariant
set is empty raises InfeasibleGame.

Task policy evaluation here uses the simultaneous-play backup
(``perf.minimax_policy_backup``): the matrix-game improvement step and the
constrained backup are only mutually consistent when the adversary responds
to the policy mixture rather than to the realized action, and the terminal
table must satisfy the constrained fixed-point equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import perf, safety
from .errors import InfeasibleGame, NonMemberSuccessor
from .game import PROTAGONIST, DetPolicy, GameSpec, MixedPolicy


@dataclass(frozen=True)
class DpiConfig:
    m: int = 30           # outer iterations (budget; early exit on convergence)
    n: int = 2            # safety rounds per outer iteration
    tol: float = 1e-10    # task solve tolerance; safety solves are exact


@dataclass
class DpiStep:
    """Certification record for one outer iteration."""

    safety_delta: float        # sup-norm change of the safety table
    safety_decrease: float     # largest pointwise decrease of the safety table
    member_count: int
    task_residual: float       # fixed-point residual of the task evaluation
    task_delta: float          # sup-norm change of the task table
    lp_values: np.ndarray      # per-state matrix-game value, NaN off-members


@dataclass
class DpiTrace:
    steps: List[DpiStep] = field(default_factory=list)
    final_constrained_residual: float = np.nan
    budget_exhausted: bool = False  # all m steps ran without meeting the exit test

    def member_counts(self) -> List[int]:
        return [s.member_count for s in self.steps]


@dataclass(frozen=True)
class DpiResult:
    pi: MixedPolicy            # task policy
    pi_h: DetPolicy            # safety policy
    q: np.ndarray              # task table for pi
    q_h: np.ndarray            # safety table for pi_h
    trace: DpiTrace
    invariant_set: safety.InvariantSet


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool            # last safety and task deltas at or below tol
    last_safety_delta: float
    last_task_delta: float
    monotone_values: bool      # safety tables pointwise non-decreasing
    monotone_members: bool     # member counts non-decreasing
    constrained_residual: float
    constrained_ok: bool

    @property
    def monotone(self) -> bool:
        return self.monotone_values and self.monotone_members

    @property
    def passed(self) -> bool:
        return self.converged and self.monotone and self.constrained_ok


def run(spec: GameSpec, cfg: DpiConfig = DpiConfig(),
        max_iter: int = safety.DEFAULT_MAX_ITER) -> DpiResult:
    """Run the dual iteration and return the final artifacts plus the trace.

    The loop exits once both policies repeat from one step to the next and
    the task table has settled; the safety table then belongs to the stable
    safety policy.  Raises InfeasibleGame when the returned invariant set
    has no member state (no state reaches a nonnegative worst-case safety
    value), and propagates MaxIterExceeded from the safety solves'
    improvement budget and the task solves' sweep budget (both ``max_iter``).
    """
    if cfg.m < 1 or cfg.n < 1:
        raise ValueError("m and n must be at least 1")
    if cfg.tol <= 0.0:
        raise ValueError("tol must be positive")

    pi_h = DetPolicy.constant(spec.n_states, 0, PROTAGONIST)
    res_h = safety.solve(spec, safety.policy_backup, pi_h, max_iter=max_iter)
    pi = MixedPolicy.uniform(spec.n_states, spec.n_u)
    q = np.zeros(spec.shape)
    trace = DpiTrace()
    prev_snapshot: Optional[np.ndarray] = None
    prev_task: Optional[np.ndarray] = None
    prev_policies: Optional[tuple] = None
    # A task solve stopping at residual <= tol is still up to
    # gamma*tol/(1-gamma) from its fixed point, and warm starts carry that
    # drift into the next step's delta, so the exit threshold sits at that
    # scale.
    task_exit = max(cfg.tol, spec.gamma * cfg.tol / (1.0 - spec.gamma))

    for _ in range(cfg.m):
        for _ in range(cfg.n):
            improved = safety.improve_policy(res_h.q, pi_h)
            if np.array_equal(improved.action, pi_h.action):
                break
            pi_h = improved
            res_h = safety.solve(spec, safety.policy_backup, pi_h,
                                 max_iter=max_iter)
        q_h = res_h.q

        inv = safety.extract_invariant_set(q_h, value_error=res_h.error_bound)
        res_q = perf.solve(spec, perf.minimax_policy_backup, pi, tol=cfg.tol,
                           max_iter=max_iter, q0=q)
        q = res_q.q
        prob, lp_values = perf.member_games(q, inv)
        off = ~inv.member
        prob[off, pi_h.action[off]] = 1.0
        pi = MixedPolicy(prob)

        if prev_snapshot is None:
            safety_delta, safety_decrease = np.inf, 0.0
        else:
            change = q_h - prev_snapshot
            safety_delta = float(np.abs(change).max())
            safety_decrease = max(0.0, -float(change.min()))
        task_delta = (np.inf if prev_task is None
                      else float(np.abs(q - prev_task).max()))
        # Solves return fresh arrays, so holding references is enough.
        prev_snapshot, prev_task = q_h, q
        trace.steps.append(DpiStep(
            safety_delta=safety_delta, safety_decrease=safety_decrease,
            member_count=inv.member_count(),
            task_residual=res_q.residual, task_delta=task_delta,
            lp_values=lp_values))

        policies_stable = (prev_policies is not None
                           and np.array_equal(pi_h.action, prev_policies[0])
                           and np.array_equal(pi.prob, prev_policies[1]))
        prev_policies = (pi_h.action.copy(), pi.prob.copy())
        if policies_stable and task_delta <= task_exit:
            break
    else:
        trace.budget_exhausted = True

    if not inv.member.any():
        raise InfeasibleGame(
            "no state admits persistent safety: "
            "the returned safety table has no member state")
    # The loop's last task evaluation predates its last improvement.
    q = perf.solve(spec, perf.minimax_policy_backup, pi, tol=cfg.tol,
                   max_iter=max_iter, q0=q).q

    try:
        # The backup leaves every cell off the induced game untouched.
        trace.final_constrained_residual = float(
            np.abs(perf.constrained_backup(q, spec, inv) - q).max())
    except NonMemberSuccessor:
        # A discounted classification need not be forward-invariant (a
        # member's successor may hold a small negative value); report an
        # uncertified residual instead of failing.
        trace.final_constrained_residual = np.inf

    return DpiResult(pi=pi, pi_h=pi_h, q=q, q_h=q_h, trace=trace,
                     invariant_set=inv)


def check_convergence(trace: DpiTrace, tol: float) -> ConvergenceReport:
    """Audit a trace: convergence of the last step, monotonicity of the
    safety tables and member counts, and the terminal constrained
    fixed-point residual."""
    if not trace.steps:
        raise ValueError("trace is empty")
    last = trace.steps[-1]
    monotone_values = all(s.safety_decrease <= tol for s in trace.steps)
    monotone_members = all(cur.member_count >= prev.member_count
                           for prev, cur in zip(trace.steps, trace.steps[1:]))
    residual = trace.final_constrained_residual
    return ConvergenceReport(
        converged=bool(last.safety_delta <= tol and last.task_delta <= tol),
        last_safety_delta=last.safety_delta,
        last_task_delta=last.task_delta,
        monotone_values=monotone_values,
        monotone_members=monotone_members,
        constrained_residual=residual,
        constrained_ok=bool(np.isnan(residual) or residual <= tol),
    )
