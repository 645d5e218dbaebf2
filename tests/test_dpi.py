import dataclasses

import numpy as np
import pytest

from safegames import DpiConfig, InfeasibleGame, MixedPolicy
from safegames.errors import MaxIterExceeded
from safegames import dpi, oracle, perf, safety
from safegames.envs import GridworldParams, gridworld
from safegames.safety import InvariantSet
from conftest import make_random_spec, push_grid_hazards
import value_iteration


def _assert_settled(trace, tol=1e-8):
    """The last step changed the safety table by at most ``tol`` and left a
    task residual of at most ``tol``, no step lowered a safety value by more
    than ``tol``, and the returned table's constrained residual is at most
    ``tol``."""
    last = trace.steps[-1]
    assert last.safety_delta <= tol and last.task_residual <= tol
    assert all(s.safety_decrease <= tol for s in trace.steps)
    assert trace.final_constrained_residual <= tol


def test_single_state_game(g1):
    result = dpi.run(g1, DpiConfig(m=2, n=2))
    assert result.pi_h.action.tolist() == [0]
    assert result.pi.prob.tolist() == [[1.0]]
    assert result.q[0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    assert result.q_h[0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    assert [s.member_count for s in result.trace.steps] == [1, 1]
    _assert_settled(result.trace)


def test_g2_final_policy_and_values(g2_rewarded):
    result = dpi.run(g2_rewarded, DpiConfig(m=20, n=2))
    # only the safe self-loop is admissible at x0
    assert result.pi.prob[0].tolist() == [1.0, 0.0]
    assert result.q[0, 0, 0] == pytest.approx(
        1.0 / (1.0 - g2_rewarded.gamma), abs=1e-7)
    # the non-member state copies the safety policy as a point mass
    assert result.pi.prob[1, result.pi_h.action[1]] == 1.0
    assert result.invariant_set.member.tolist() == [True, False]
    assert all(s.member_count == 1 for s in result.trace.steps)
    _assert_settled(result.trace)


def test_infeasible_game_raises(g3):
    with pytest.raises(InfeasibleGame):
        dpi.run(g3, DpiConfig(m=3, n=2))
    # a large game whose viability kernel is empty raises too
    spec = make_random_spec(0, n_states=300, hazard_fraction=0.5)
    assert not oracle.viability_kernel(spec).any()
    with pytest.raises(InfeasibleGame):
        dpi.run(spec)


def test_terminal_tables_match_standalone_solves():
    for seed in (2, 5, 7):
        spec = make_random_spec(seed)
        result = dpi.run(spec, DpiConfig(m=40, n=2, tol=1e-11))
        assert np.array_equal(result.q_h, safety.solve(spec))
        assert result.trace.final_constrained_residual <= 1e-6

        # terminal task values on member cells equal the constrained fixed
        # point recomputed from scratch on the terminal invariant set
        inv = result.invariant_set
        scratch = value_iteration.solve(spec, perf.constrained_backup, inv,
                                        tol=1e-11).q
        cells = np.broadcast_to(inv.member[:, None, None]
                                & inv.admissible[:, :, None], spec.shape)
        assert np.abs((result.q - scratch)[cells]).max() <= 1e-6


def test_safety_side_is_the_max_min_solve_on_the_grid_ladder():
    # The solve-grid benchmark's twelve games at seed 4242.  When the
    # max-min solve ran its own protagonist iteration, its table and the
    # dual iteration's differed by 3.6e-15 to 8.9e-15 on every one of them.
    for k in range(12):
        spec = gridworld(GridworldParams(
            width=32, height=32, hazard_cells=push_grid_hazards(seed=(4242, k)),
            goal_cell=(31, 31)))
        result = dpi.run(spec)
        assert not result.trace.budget_exhausted, k
        assert np.array_equal(result.q_h, safety.solve(spec)), k
        improved = safety.improve_policy(result.q_h, result.pi_h)
        assert np.array_equal(improved.action, result.pi_h.action), k


def test_push_grid_converges_near_discount_one():
    # Every evaluated pair on the grid is pure, so each Newton step's
    # evaluation is exact.  Sweeps to an absolute move left an error of up
    # to gamma * tol / (1 - gamma) here and ran all 30 steps out.
    spec = dataclasses.replace(gridworld(GridworldParams(
        width=32, height=32, hazard_cells=push_grid_hazards(),
        goal_cell=(31, 31))), gamma=0.9999)
    trace = dpi.run(spec).trace
    assert not trace.budget_exhausted
    assert len(trace.steps) <= 5
    assert trace.steps[-1].task_residual <= DpiConfig.tol


def test_monotone_chain_in_trace():
    for seed in (2, 5):
        spec = make_random_spec(seed)
        result = dpi.run(spec, DpiConfig(m=30, n=1, tol=1e-11))
        steps = result.trace.steps
        assert len(steps) >= 2
        for prev, cur in zip(steps, steps[1:]):
            assert cur.safety_decrease <= 1e-8
            assert cur.member_count >= prev.member_count


def test_task_policy_robust_set_does_not_shrink():
    # The returned task policy plays only admissible actions on members, so
    # its own robust invariant set contains the terminal safety one.
    for seed in (2, 7, 9):
        spec = make_random_spec(seed)
        result = dpi.run(spec, DpiConfig(m=40, n=2, tol=1e-11))
        member = result.invariant_set.member
        assert member.any()
        task_set = InvariantSet(member, (result.pi.prob > 0) & member[:, None])
        violations, _ = oracle.find_invariance_violations(spec, task_set)
        assert violations == []
        assert (spec.constraint[member] >= 0).all()


def test_policy_support_restricted_to_admissible():
    for seed in (2, 5):
        spec = make_random_spec(seed)
        result = dpi.run(spec, DpiConfig(m=30, n=2))
        inv = result.invariant_set
        for x in np.flatnonzero(inv.member):
            support = result.pi.prob[x] > 1e-12
            assert (~support | inv.admissible[x]).all()
        for x in np.flatnonzero(~inv.member):
            assert result.pi.prob[x, result.pi_h.action[x]] == 1.0
            assert result.pi.prob[x].sum() == 1.0


def test_lp_values_recorded_for_members_only():
    spec = make_random_spec(2)
    result = dpi.run(spec, DpiConfig(m=10, n=2))
    last = result.trace.steps[-1]
    members = result.invariant_set.member
    assert np.isfinite(last.lp_values[members]).all()
    assert np.isnan(last.lp_values[~members]).all()


def test_early_exit_before_budget():
    spec = make_random_spec(5)
    result = dpi.run(spec, DpiConfig(m=200, n=2))
    assert len(result.trace.steps) < 200


def test_random_game_that_never_exited_now_converges():
    # Seed 27 ran all 200 steps under the bit-for-bit policy exit test.
    result = dpi.run(make_random_spec(27), DpiConfig(m=200, n=2))
    assert len(result.trace.steps) < 10
    assert not result.trace.budget_exhausted


def test_300_state_game_meets_its_tolerance():
    # The solve-random benchmark's game shape: the loop used to run out its
    # 30 steps with a constrained residual of 2.2-7.9e-10.
    spec = make_random_spec(0, n_states=300, n_u=6, n_a=3,
                            hazard_fraction=0.1)
    result = dpi.run(spec)
    trace = result.trace
    assert not trace.budget_exhausted
    assert len(trace.steps) <= 12
    assert trace.steps[-1].task_residual <= DpiConfig().tol
    assert trace.final_constrained_residual <= DpiConfig().tol
    # Accepted step lengths lie in (0, 1]; a backup step records 0.
    assert trace.steps[0].newton == 0.0
    assert all(0.0 <= s.newton <= 1.0 for s in trace.steps)
    assert sum(s.newton == 1.0 for s in trace.steps) >= 4


def test_residual_safeguard_recovers_from_a_cycling_newton_step():
    # Plain Pollatschek-Avi-Itzhak steps cycle on this game: evaluated
    # exactly, every full step after the first lands at residual 0.36.
    spec = make_random_spec(52)
    result = dpi.run(spec, DpiConfig(m=40, n=2, tol=1e-11))
    steps = result.trace.steps
    assert not result.trace.budget_exhausted
    assert any(s.newton < 1.0 for s in steps[1:])
    for prev, cur in zip(steps[1:], steps[2:]):
        assert cur.task_residual <= spec.gamma * prev.task_residual
    assert result.trace.final_constrained_residual <= 1e-11


def test_safeguard_checks_steps_that_switch_the_safety_policy():
    # Step 2 switches the safety policy.  Taken in full, it raised the
    # residual from 7.83 to 9.96, above gamma times 7.83.
    spec = make_random_spec(3, n_states=100, n_u=4, n_a=2,
                            hazard_fraction=0.2)
    result = dpi.run(spec, DpiConfig(n=1))
    steps = result.trace.steps
    assert steps[2].safety_delta > 0.0
    assert not result.trace.budget_exhausted
    # Every Newton step after the first cuts the residual by gamma; a
    # backup step (newton 0) is exempt.
    for prev, cur in zip(steps[1:], steps[2:]):
        if cur.newton > 0:
            assert cur.task_residual <= spec.gamma * prev.task_residual


def test_pair_evaluation_stops_when_rounding_stalls_it():
    # Values near 1e12 round to 2**-13, far above the tolerance, so the
    # sweeps stop where rounding stalls them instead of running out.
    spec = make_random_spec(3, n_states=6, n_u=2, n_a=2)
    spec = dataclasses.replace(spec, reward=spec.reward * 1e11)
    row = np.full((6, 2), 0.5)
    column = np.full((6, 2), 0.5)
    v = perf.evaluate_pair(spec, row, column, np.zeros(6), tol=1e-10,
                           max_iter=5000)
    again = perf.evaluate_pair(spec, row, column, v, tol=1e-10,
                               max_iter=5000)
    assert np.abs(again - v).max() <= 1e-14 * np.abs(v).max()
    with pytest.raises(MaxIterExceeded):
        perf.evaluate_pair(spec, row, column, np.zeros(6), tol=1e-10,
                           max_iter=5)


def test_pair_evaluation_rejects_a_negative_budget():
    # on a pure pair, which takes no sweeps, and on a mixed one
    spec = make_random_spec(3, n_states=6, n_u=2, n_a=2)
    for p in (1.0, 0.5):
        row = np.tile([p, 1.0 - p], (6, 1))
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            perf.evaluate_pair(spec, row, row, np.zeros(6), tol=1e-10,
                               max_iter=-3)


def test_config_validation(g1):
    with pytest.raises(ValueError):
        dpi.run(g1, DpiConfig(m=0))
    with pytest.raises(ValueError):
        dpi.run(g1, DpiConfig(n=0))
    with pytest.raises(ValueError):
        dpi.run(g1, DpiConfig(tol=0.0))
    # a non-finite tol would exit at once (inf) or never (nan)
    spec = make_random_spec(1, n_states=8, n_u=2, n_a=2)
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError):
            dpi.run(spec, DpiConfig(tol=tol))


@pytest.mark.parametrize("max_iter", [0, -3])
def test_config_rejects_a_budget_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        dpi.run(make_random_spec(1), DpiConfig(max_iter=max_iter))


def test_config_budget_reaches_the_safety_side():
    with pytest.raises(MaxIterExceeded, match="protagonist improvements"):
        dpi.run(make_random_spec(8), DpiConfig(max_iter=1))
