"""Mixed-policy constructors that only the tests use."""

import numpy as np

from safegames import MixedPolicy


def uniform(n_states: int, n_actions: int) -> MixedPolicy:
    return MixedPolicy(np.full((n_states, n_actions), 1.0 / n_actions))


def point_mass(actions, n_actions: int) -> MixedPolicy:
    actions = np.asarray(actions, dtype=np.int64)
    prob = np.zeros((actions.size, n_actions))
    prob[np.arange(actions.size), actions] = 1.0
    return MixedPolicy(prob)
