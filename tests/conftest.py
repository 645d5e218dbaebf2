import dataclasses
import json

import numpy as np
import pytest
from hypothesis import settings

from safegames import GameSpec
from safegames.envs import RandomGameParams, random_game

# One profile for every property test: derandomized draws, no example
# database and no deadline; a test's own @settings still override it.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def g1():
    """Single state, single action pair, safe self-loop."""
    return GameSpec(1, 1, 1,
                    transition=np.zeros((1, 1, 1), dtype=int),
                    reward=np.ones((1, 1, 1)),
                    constraint=np.array([2.0]),
                    gamma=0.5, gamma_h=0.9)


def _g2_transition():
    t = np.zeros((2, 2, 1), dtype=int)
    t[0, 0, 0] = 0  # safe self-loop
    t[0, 1, 0] = 1  # step into the absorbing unsafe state
    t[1, :, 0] = 1
    return t


@pytest.fixture
def g2():
    """Two states: safe self-loop at x0, absorbing h=-1 at x1; one adversary action."""
    return GameSpec(2, 2, 1,
                    transition=_g2_transition(),
                    reward=np.zeros((2, 2, 1)),
                    constraint=np.array([1.0, -1.0]),
                    gamma=0.95, gamma_h=0.9)


@pytest.fixture
def g2_rewarded():
    """G2 with reward 1 on every x0 row and 0 at x1."""
    reward = np.zeros((2, 2, 1))
    reward[0] = 1.0
    return GameSpec(2, 2, 1,
                    transition=_g2_transition(),
                    reward=reward,
                    constraint=np.array([1.0, -1.0]),
                    gamma=0.95, gamma_h=0.9)


def _g3_transition():
    t = np.empty((2, 2, 2), dtype=int)
    for u in range(2):
        for a in range(2):
            t[0, u, a] = 0 if u == a else 1
    t[1] = 1
    return t


@pytest.fixture
def g3():
    """Matching game: x0 stays safe only when the adversary matches the
    protagonist's action, so persistent safety is impossible."""
    return GameSpec(2, 2, 2,
                    transition=_g3_transition(),
                    reward=np.zeros((2, 2, 2)),
                    constraint=np.array([1.0, -1.0]),
                    gamma=0.95, gamma_h=0.9)


@pytest.fixture
def g3_matching_reward():
    """G3 variant paying 1 exactly when the actions match."""
    reward = np.zeros((2, 2, 2))
    for u in range(2):
        reward[:, u, u] = 1.0
    return GameSpec(2, 2, 2,
                    transition=_g3_transition(),
                    reward=reward,
                    constraint=np.array([1.0, -1.0]),
                    gamma=0.95, gamma_h=0.9)


@pytest.fixture
def chain():
    """Five states in a line into an absorbing hazard, h = (2, 2, 2, 2, -1),
    one action per player.  At gamma_h = 0.9 the sign test keeps state 0,
    whose only successor holds a negative value; the viability kernel is
    empty."""
    return GameSpec(5, 1, 1,
                    transition=np.array([1, 2, 3, 4, 4]).reshape(5, 1, 1),
                    reward=np.zeros((5, 1, 1)),
                    constraint=np.array([2.0, 2.0, 2.0, 2.0, -1.0]),
                    gamma=0.95, gamma_h=0.9)


def make_random_spec(seed, **fields):
    """``random_game(RandomGameParams(seed=seed, **fields))``, except that a
    ``gamma`` or ``gamma_h`` in ``fields`` replaces the spec's, as the CLI's
    --gamma and --gamma-h do."""
    discounts = {k: fields.pop(k) for k in ("gamma", "gamma_h") if k in fields}
    return dataclasses.replace(
        random_game(RandomGameParams(seed=seed, **fields)), **discounts)


def save_game(spec, path, labels=None):
    """Write ``spec`` (and optional state labels) as the game JSON that
    ``cli.load_game`` reads, with sorted keys."""
    data = {
        "n_states": spec.n_states, "n_u": spec.n_u, "n_a": spec.n_a,
        "gamma": spec.gamma, "gamma_h": spec.gamma_h,
        "transition": spec.transition.tolist(),
        "reward": spec.reward.tolist(),
        "h": spec.constraint.tolist(),
    }
    if labels is not None:
        data["labels"] = list(labels)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")

def push_grid_hazards(size=32, n_hazards=30, seed=(0, 0)):
    """Hazard cells drawn the way the solve-grid benchmark draws them; the
    default is its first game for seed 0, whose zero-valued boundary states
    exposed warm-start drift in the safety tables."""
    rng = np.random.default_rng(list(seed))
    cells = np.sort(rng.choice(size * size - 1, n_hazards, replace=False))
    return tuple((int(c % size), int(c // size)) for c in cells)
