"""Step-by-step rollouts: the reference for ``oracle.trajectory_min_constraint``.

The oracle takes the minimum of h over a closed-loop orbit for every state at
once; these rollouts walk one trajectory a step at a time, so the tests can
check the oracle against the states a trajectory actually visits.
"""

from dataclasses import dataclass

import numpy as np

from safegames import ADVERSARY, PROTAGONIST, DetPolicy, GameSpec


@dataclass(frozen=True)
class Trajectory:
    """A deterministic rollout, truncated one step after the closed loop
    first repeats a state.

    ``states`` has one more entry than the action sequences; ``cycle_start``
    is the index at which the repeated final state was first left by the
    policies' actions.
    """

    states: np.ndarray
    prot_actions: np.ndarray
    adv_actions: np.ndarray
    cycle_start: int


def rollout(spec: GameSpec, x0: int, u0: int, a0: int,
            pi: DetPolicy, mu: DetPolicy) -> Trajectory:
    """Roll the deterministic dynamics from (x0, u0, a0).

    The first step applies (u0, a0); afterwards both players follow their
    policies.  A return to x0 repeats nothing unless (u0, a0) is also the
    policies' pair there, because x0 is then left by a different action.
    Stops one step after a state repeats, which happens within n_states + 2
    entries on a finite state space.
    """
    if pi.role != PROTAGONIST:
        raise ValueError("pi must be a protagonist policy")
    if mu.role != ADVERSARY:
        raise ValueError("mu must be an adversary policy")
    if not (0 <= x0 < spec.n_states and 0 <= u0 < spec.n_u and 0 <= a0 < spec.n_a):
        raise ValueError("start indices out of range")

    states = [int(x0)]
    prot_actions = []
    adv_actions = []
    closed_loop = (u0, a0) == (pi.action[x0], mu.action[x0])
    first_seen = {int(x0): 0} if closed_loop else {}
    u, a = int(u0), int(a0)
    x = int(x0)
    while True:
        prot_actions.append(u)
        adv_actions.append(a)
        x = int(spec.transition[x, u, a])
        states.append(x)
        if x in first_seen:
            cycle_start = first_seen[x]
            break
        first_seen[x] = len(states) - 1
        u = int(pi.action[x])
        a = int(mu.action[x])
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        prot_actions=np.array(prot_actions, dtype=np.int64),
        adv_actions=np.array(adv_actions, dtype=np.int64),
        cycle_start=cycle_start,
    )
