"""Exceptions shared across the solver and oracle modules."""


class MaxIterExceeded(RuntimeError):
    """A solve ran out of budget: value iteration's sweeps before reaching
    its tolerance, or exact strategy iteration's policy improvements."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class InfeasibleGame(RuntimeError):
    """No state admits persistent safety: the invariant set returned from
    the safety table is empty."""


class NonMemberSuccessor(RuntimeError):
    """An admissible action at a member state leads outside the member set.

    Signals a set built by hand or stale; ``safety.extract_invariant_set``
    returns sets closed under their admissible actions, which cannot raise
    it.
    """


class BudgetExceeded(RuntimeError):
    """Requested enumeration is larger than the configured budget."""


class NumericalFailure(RuntimeError):
    """Matrix-game solve produced a certificate gap beyond tolerance."""
