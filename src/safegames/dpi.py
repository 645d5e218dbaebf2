"""Dual iteration of a safety policy and a task policy.

Each outer step runs ``n`` rounds of safety policy evaluation/improvement,
checks that persistent safety is achievable at all, evaluates the task
policy, and improves it: member states get the matrix-game strategy over
their admissible actions, non-member states copy the safety policy as a
point mass.  Safety values grow monotonically toward the max-min fixed
point, so the invariant set only ever expands.

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

from . import matrix_game, perf, safety
from .errors import InfeasibleGame, NonMemberSuccessor
from .game import PROTAGONIST, DetPolicy, GameSpec, MixedPolicy

FEASIBILITY_RETRY_BUDGET = 10


@dataclass(frozen=True)
class DpiConfig:
    m: int = 30           # outer iterations (budget; early exit on convergence)
    n: int = 2            # safety rounds per outer iteration
    tol: float = 1e-10


@dataclass
class DpiStep:
    """Certification record for one outer iteration."""

    safety_delta: float        # sup-norm change of the safety table
    safety_decrease: float     # largest pointwise decrease of the safety table
    member_count: int
    feasible: bool
    task_residual: float       # fixed-point residual of the task evaluation
    task_delta: float          # sup-norm change of the task table
    lp_values: np.ndarray      # per-state matrix-game value, NaN off-members


@dataclass
class DpiTrace:
    steps: List[DpiStep] = field(default_factory=list)
    feasibility_retries: int = 0
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


def _improve_task_policy(spec: GameSpec, q: np.ndarray, inv: safety.InvariantSet,
                         pi_h: DetPolicy):
    """Matrix-game strategies on member states, safety point mass elsewhere."""
    prob = np.zeros((spec.n_states, spec.n_u))
    lp_values = np.full(spec.n_states, np.nan)
    for x in np.flatnonzero(inv.member):
        sol = matrix_game.solve(matrix_game.restricted(q[x], inv.admissible[x]))
        prob[x] = sol.strategy
        lp_values[x] = sol.value
    for x in np.flatnonzero(~inv.member):
        prob[x, pi_h.action[x]] = 1.0
    return MixedPolicy(prob), lp_values


def run(spec: GameSpec, cfg: DpiConfig = DpiConfig(),
        max_iter: int = safety.DEFAULT_MAX_ITER) -> DpiResult:
    """Run the dual iteration and return the final artifacts plus the trace.

    Raises InfeasibleGame when the feasibility gate (some state must reach a
    nonnegative worst-case safety value) still fails after
    FEASIBILITY_RETRY_BUDGET extra safety rounds, and propagates
    MaxIterExceeded from the fixed-point solves.
    """
    if cfg.m < 1 or cfg.n < 1:
        raise ValueError("m and n must be at least 1")
    if cfg.tol <= 0.0:
        raise ValueError("tol must be positive")

    pi_h = DetPolicy.constant(spec.n_states, 0, PROTAGONIST)
    pi = MixedPolicy.uniform(spec.n_states, spec.n_u)
    q_h = np.zeros(spec.shape)
    q = np.zeros(spec.shape)
    trace = DpiTrace()
    prev_snapshot: Optional[np.ndarray] = None
    prev_task: Optional[np.ndarray] = None
    prev_policies: Optional[tuple] = None
    # A solve stopping at residual <= tol is still up to gamma*tol/(1-gamma)
    # from its fixed point, and warm starts carry that drift into the next
    # round's delta, so the exit thresholds must sit at that scale.
    safety_exit = max(cfg.tol, spec.gamma_h * cfg.tol / (1.0 - spec.gamma_h))
    task_exit = max(cfg.tol, spec.gamma * cfg.tol / (1.0 - spec.gamma))

    def safety_round(q_h):
        res = safety.solve(spec, safety.policy_backup, pi_h, tol=cfg.tol,
                           max_iter=max_iter, q0=q_h)
        return res, safety.improve_policy(res.q)

    for _ in range(cfg.m):
        for _ in range(cfg.n):
            res_h, pi_h = safety_round(q_h)
            q_h = res_h.q

        feasible = safety.is_feasible(q_h)
        while not feasible and trace.feasibility_retries < FEASIBILITY_RETRY_BUDGET:
            trace.feasibility_retries += 1
            res_h, pi_h = safety_round(q_h)
            q_h = res_h.q
            feasible = safety.is_feasible(q_h)
        if not feasible:
            raise InfeasibleGame(
                "no state admits persistent safety: "
                "max max min of the optimal safety table is negative")

        inv = safety.extract_invariant_set(q_h, value_error=res_h.error_bound)
        res_q = perf.solve(spec, perf.minimax_policy_backup, pi, tol=cfg.tol,
                           max_iter=max_iter, q0=q)
        q = res_q.q
        pi, lp_values = _improve_task_policy(spec, q, inv, pi_h)

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
            member_count=inv.member_count(), feasible=feasible,
            task_residual=res_q.residual, task_delta=task_delta,
            lp_values=lp_values))

        policies_stable = (prev_policies is not None
                           and np.array_equal(pi_h.action, prev_policies[0])
                           and np.array_equal(pi.prob, prev_policies[1]))
        prev_policies = (pi_h.action.copy(), pi.prob.copy())
        if (policies_stable and safety_delta <= safety_exit
                and task_delta <= task_exit):
            break
    else:
        trace.budget_exhausted = True

    # Re-evaluate both tables so the returned values belong to the returned
    # policies (the loop's last evaluation predates its last improvement).
    # The safety table restarts cold: warm starts keep a decayed remnant of
    # earlier policies' pessimism, which pushes exact-zero boundary values a
    # few 1e-9 below zero and misclassifies them.
    res_h = safety.solve(spec, safety.policy_backup, pi_h, tol=cfg.tol,
                         max_iter=max_iter)
    q_h = res_h.q
    q = perf.solve(spec, perf.minimax_policy_backup, pi, tol=cfg.tol,
                   max_iter=max_iter, q0=q).q
    inv = safety.extract_invariant_set(q_h, value_error=res_h.error_bound)

    cells = inv.admissible[:, :, None] & inv.member[:, None, None]
    try:
        backed_up = perf.constrained_backup(q, spec, inv)
        trace.final_constrained_residual = (
            float(np.abs((backed_up - q)[np.broadcast_to(cells, q.shape)]).max())
            if cells.any() else 0.0)
    except NonMemberSuccessor:
        # The discounted classification is not forward-invariant at this
        # tolerance; report an uncertified residual instead of failing.
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
