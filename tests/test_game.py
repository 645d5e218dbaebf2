import dataclasses

import numpy as np
import pytest

from safegames import (ADVERSARY, PROTAGONIST, DetPolicy, GameSpec,
                       MixedPolicy, validate)
from conftest import make_random_spec
from rollout import rollout
import policies


def test_smallest_legal_spec_passes(g1):
    report = validate(g1)
    assert report.ok
    assert report.errors == ()


def test_gamma_h_boundary_fails(g1):
    bad = dataclasses.replace(g1, gamma_h=1.0)
    report = validate(bad)
    assert not report.ok
    assert "gamma_h out of range" in report.errors


def test_transition_out_of_range_fails(g1):
    bad = dataclasses.replace(g1, transition=np.full((1, 1, 1), 5))
    report = validate(bad)
    assert not report.ok
    assert "transition index out of range" in report.errors


def test_gamma_boundary_and_nonfinite_entries(g1):
    bad = dataclasses.replace(g1, gamma=0.0)
    assert "gamma out of range" in validate(bad).errors
    bad = dataclasses.replace(g1, reward=np.full((1, 1, 1), np.inf))
    assert "reward contains non-finite entries" in validate(bad).errors
    bad = dataclasses.replace(g1, constraint=np.array([np.nan]))
    assert "constraint contains non-finite entries" in validate(bad).errors


def test_shape_mismatch_reported(g2):
    bad = dataclasses.replace(g2, reward=np.zeros((2, 2, 2)))
    report = validate(bad)
    assert not report.ok
    assert any("reward shape" in e for e in report.errors)


def test_rollout_self_loop(g1):
    pi = DetPolicy.constant(1, 0, PROTAGONIST)
    mu = DetPolicy.constant(1, 0, ADVERSARY)
    traj = rollout(g1, 0, 0, 0, pi, mu)
    assert traj.states.tolist() == [0, 0]
    assert traj.cycle_start == 0


def test_rollout_absorbing(g2):
    pi = DetPolicy.constant(2, 0, PROTAGONIST)
    mu = DetPolicy.constant(2, 0, ADVERSARY)
    traj = rollout(g2, 0, 1, 0, pi, mu)
    assert traj.states.tolist() == [0, 1, 1]
    assert traj.cycle_start == 1
    assert traj.prot_actions.tolist() == [1, 0]


def test_rollout_pigeonhole_and_replay():
    # Deterministic dynamics on 8 states must repeat within 10 entries, and
    # replaying the actions through the transition table must reproduce the
    # state sequence exactly.
    for seed in range(10):
        spec = make_random_spec(seed)
        rng = np.random.default_rng(seed)
        pi = DetPolicy(rng.integers(0, spec.n_u, spec.n_states), PROTAGONIST)
        mu = DetPolicy(rng.integers(0, spec.n_a, spec.n_states), ADVERSARY)
        x0 = int(rng.integers(spec.n_states))
        traj = rollout(spec, x0, 0, 0, pi, mu)
        assert len(traj.states) <= spec.n_states + 2
        assert len(traj.states) <= 10
        assert traj.states[-1] in traj.states[:-1]
        assert traj.cycle_start < len(traj.states)
        x = traj.states[0]
        for t, (u, a) in enumerate(zip(traj.prot_actions, traj.adv_actions)):
            x = spec.transition[x, u, a]
            assert x == traj.states[t + 1]


def test_rollout_rejects_wrong_roles(g1):
    pi = DetPolicy.constant(1, 0, PROTAGONIST)
    mu = DetPolicy.constant(1, 0, ADVERSARY)
    with pytest.raises(ValueError):
        rollout(g1, 0, 0, 0, mu, mu)
    with pytest.raises(ValueError):
        rollout(g1, 0, 0, 0, pi, pi)
    with pytest.raises(ValueError):
        rollout(g1, 0, 0, 5, pi, mu)


def test_mixed_policy_validation():
    with pytest.raises(ValueError):
        MixedPolicy(np.array([[0.5, 0.4]]))  # does not sum to 1
    with pytest.raises(ValueError):
        MixedPolicy(np.array([[1.5, -0.5]]))  # negative mass
    uniform = policies.uniform(3, 4)
    assert uniform.prob.shape == (3, 4)
    point = policies.point_mass(np.array([2, 0]), 3)
    assert point.prob[0, 2] == 1.0 and point.prob[1, 0] == 1.0
    assert (point.prob > 0).sum() == 2


def test_mixed_policy_rejects_a_one_dimensional_table():
    with pytest.raises(ValueError, match="prob must be a"):
        MixedPolicy(np.array([0.5, 0.5]))


def test_det_policy_role_check():
    with pytest.raises(ValueError):
        DetPolicy(np.zeros(2, dtype=int), role="referee")
