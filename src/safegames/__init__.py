"""Tabular solver and verification toolkit for constrained two-player
zero-sum Markov games: safety fixed points, robust invariant sets, matrix
game LPs, dual policy/safety iteration, and brute-force oracles."""

from .errors import (BudgetExceeded, InfeasibleGame, MaxIterExceeded,
                     NonMemberSuccessor, NumericalFailure)
from .game import (ADVERSARY, PROTAGONIST, DetPolicy, GameSpec, MixedPolicy,
                   ValidationReport, validate)
from .safety import InvariantSet
from .dpi import DpiConfig, DpiResult, DpiTrace
from .envs import GridworldParams, RandomGameParams, gridworld, random_game

__all__ = [
    "ADVERSARY", "PROTAGONIST",
    "BudgetExceeded", "InfeasibleGame", "MaxIterExceeded",
    "NonMemberSuccessor", "NumericalFailure",
    "DetPolicy", "GameSpec", "MixedPolicy", "ValidationReport", "validate",
    "InvariantSet",
    "DpiConfig", "DpiResult", "DpiTrace",
    "GridworldParams", "RandomGameParams", "gridworld", "random_game",
]
