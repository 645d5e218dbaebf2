"""Value iteration of a task-side backup: the tests' reference fixed point.

This is the task-side solve the package used before the dual iteration
took the restricted game's fixed point by Newton steps.  The tests keep it
to pin the backups of ``perf`` against closed forms and against the oracle,
and as the from-scratch reference for ``dpi.run``'s task tables.
"""

import numpy as np

from safegames.safety import DEFAULT_MAX_ITER, DEFAULT_TOL, fixed_point


def solve(spec, backup, *args, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
          q0=None):
    """Fixed point of ``backup(q, spec, *args)`` at discount ``gamma``,
    starting from ``q0`` (zeros by default).

    For example ``solve(spec, perf.minimax_policy_backup, pi)`` evaluates a
    mixed policy under simultaneous play and ``solve(spec,
    perf.constrained_backup, inv)`` is the constrained fixed point on an
    invariant set.
    """
    if q0 is None:
        q0 = np.zeros(spec.shape)
    return fixed_point(lambda q: backup(q, spec, *args), q0, tol, max_iter)
