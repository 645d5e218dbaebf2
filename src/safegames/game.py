"""Data model for finite constrained two-player zero-sum Markov games.

States and actions are dense integer indices.  The protagonist picks u from
``n_u`` actions, the adversary picks a from ``n_a`` actions, and the system
moves deterministically through ``transition[x, u, a]``.  The constraint
function h(x) must stay nonnegative for the trajectory to count as safe.

All tables are numpy arrays in double precision.  A validated ``GameSpec`` is
immutable and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROTAGONIST = "protagonist"
ADVERSARY = "adversary"


@dataclass(frozen=True)
class GameSpec:
    """A finite constrained zero-sum Markov game with deterministic dynamics."""

    n_states: int
    n_u: int
    n_a: int
    transition: np.ndarray  # (n_states, n_u, n_a) -> successor state index
    reward: np.ndarray      # (n_states, n_u, n_a) -> protagonist reward
    constraint: np.ndarray  # (n_states,) -> h(x)
    gamma: float = 0.95
    gamma_h: float = 0.99

    def __post_init__(self):
        object.__setattr__(self, "transition",
                           np.ascontiguousarray(self.transition, dtype=np.int64))
        object.__setattr__(self, "reward",
                           np.ascontiguousarray(self.reward, dtype=np.float64))
        object.__setattr__(self, "constraint",
                           np.ascontiguousarray(self.constraint, dtype=np.float64))

    @property
    def shape(self):
        return (self.n_states, self.n_u, self.n_a)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...] = ()


def validate(spec: GameSpec) -> ValidationReport:
    """Check every structural invariant of a game spec.

    Returns a report rather than raising: callers decide whether a failing
    spec is an error.  A passing spec is accepted by every other module.
    Its task values lie within max |reward| / (1 - gamma) of 0, so twice
    that bound must be finite for the difference of two values, and an LP
    payoff shifted by 1 - min, to stay finite.
    """
    errors = []
    if spec.n_states < 1:
        errors.append("n_states must be positive")
    if spec.n_u < 1:
        errors.append("n_u must be positive")
    if spec.n_a < 1:
        errors.append("n_a must be positive")
    shape = (spec.n_states, spec.n_u, spec.n_a)
    if spec.transition.shape != shape:
        errors.append(f"transition shape {spec.transition.shape} != {shape}")
    if spec.reward.shape != shape:
        errors.append(f"reward shape {spec.reward.shape} != {shape}")
    if spec.constraint.shape != (spec.n_states,):
        errors.append(f"constraint shape {spec.constraint.shape} != ({spec.n_states},)")
    if spec.transition.size and spec.transition.shape == shape:
        if spec.transition.min() < 0 or spec.transition.max() >= spec.n_states:
            errors.append("transition index out of range")
    if not (0.0 < spec.gamma < 1.0):
        errors.append("gamma out of range")
    if not (0.0 < spec.gamma_h < 1.0):
        errors.append("gamma_h out of range")
    if not np.isfinite(spec.reward).all():
        errors.append("reward contains non-finite entries")
    elif spec.reward.size and 0.0 < spec.gamma < 1.0 and not math.isfinite(
            2 * float(np.abs(spec.reward).max()) / (1.0 - spec.gamma)):
        errors.append("reward scale overflows: 2 max |reward| / (1 - gamma) "
                      "is not finite")
    if not np.isfinite(spec.constraint).all():
        errors.append("constraint contains non-finite entries")
    return ValidationReport(ok=not errors, errors=tuple(errors))


@dataclass(frozen=True)
class DetPolicy:
    """A deterministic state -> action map for one of the two players."""

    action: np.ndarray  # (n_states,) action indices
    role: str = PROTAGONIST

    def __post_init__(self):
        object.__setattr__(self, "action",
                           np.ascontiguousarray(self.action, dtype=np.int64))
        if self.role not in (PROTAGONIST, ADVERSARY):
            raise ValueError(f"unknown role {self.role!r}")

    @classmethod
    def constant(cls, n_states: int, action: int = 0, role: str = PROTAGONIST):
        return cls(np.full(n_states, action, dtype=np.int64), role)


@dataclass(frozen=True)
class MixedPolicy:
    """Per-state action distributions for the protagonist.

    Rows must be probability vectors: nonnegative, summing to one within
    1e-12.
    """

    prob: np.ndarray  # (n_states, n_actions)

    def __post_init__(self):
        object.__setattr__(self, "prob",
                           np.ascontiguousarray(self.prob, dtype=np.float64))
        if self.prob.ndim != 2:
            raise ValueError("prob must be a (n_states, n_actions) table")
        if (self.prob < 0.0).any():
            raise ValueError("negative probability entry")
        row_sums = self.prob.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-12:
            raise ValueError("policy rows must sum to 1 within 1e-12")
