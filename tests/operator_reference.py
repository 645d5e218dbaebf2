"""One-pair-at-a-time operator checks: the reference for the union blocks.

This is the loop ``verify`` ran before it checked its pairs in blocks of
disjoint-union games: every pair applies the six engine backups to its own
copy of the game.  Fed the same tables and policies, it must give every
pair the same excess as ``verify._pair_excess``, so the tests keep this
copy as the reference for that claim.
"""

import numpy as np

from safegames import perf, safety
from safegames.game import DetPolicy, MixedPolicy


def operators(spec, pi_h, mu_h, pi, mu):
    return (
        (lambda q: safety.pair_backup(q, spec, pi_h, mu_h), spec.gamma_h),
        (lambda q: safety.policy_backup(q, spec, pi_h), spec.gamma_h),
        (lambda q: safety.optimal_backup(q, spec), spec.gamma_h),
        (lambda q: perf.pair_backup(q, spec, pi, mu), spec.gamma),
        (lambda q: perf.policy_backup(q, spec, pi), spec.gamma),
        (lambda q: perf.minimax_policy_backup(q, spec, pi), spec.gamma),
    )


def contraction_excess(op, gamma, q1, q2):
    return np.abs(op(q1) - op(q2)).max() - gamma * np.abs(q1 - q2).max()


def monotonicity_drop(op, _gamma, q, d):
    return (op(q - d) - op(q)).max()


def pair_excesses(spec, q, d, policies, excess):
    """Excess of each pair for every operator, as a (pairs, operators)
    array; ``q``, ``d`` and the policies ``(pi_h, mu_h, pi, mu)`` hold the
    pairs' draws stacked along the state axis, ``spec.n_states`` per pair."""
    pi_h, mu_h, pi, mu = policies
    n = spec.n_states
    rows = []
    for p in range(len(q) // n):
        cut = slice(p * n, (p + 1) * n)
        ops = operators(spec, DetPolicy(pi_h.action[cut], pi_h.role),
                        DetPolicy(mu_h.action[cut], mu_h.role),
                        MixedPolicy(pi.prob[cut]), MixedPolicy(mu.prob[cut]))
        rows.append([excess(op, gamma, q[cut], d[cut]) for op, gamma in ops])
    return np.array(rows)
