import numpy as np
import pytest

from safegames import DpiConfig, InfeasibleGame, MixedPolicy
from safegames import dpi, oracle, perf, safety
from safegames.dpi import DpiStep, DpiTrace
from safegames.safety import InvariantSet
from conftest import make_random_spec


def _step(decrease=0.0, members=1, delta=0.0):
    return DpiStep(safety_delta=delta, safety_decrease=decrease,
                   member_count=members, feasible=True, task_residual=0.0,
                   task_delta=delta, lp_values=np.full(2, np.nan))


def test_single_state_game(g1):
    result = dpi.run(g1, DpiConfig(m=2, n=2))
    assert result.pi_h.action.tolist() == [0]
    assert result.pi.prob.tolist() == [[1.0]]
    assert result.q[0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    assert result.q_h[0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    assert result.trace.member_counts() == [1, 1]
    report = dpi.check_convergence(result.trace, 1e-8)
    assert report.converged and report.monotone and report.constrained_ok


def test_g2_final_policy_and_values(g2_rewarded):
    result = dpi.run(g2_rewarded, DpiConfig(m=20, n=2))
    # only the safe self-loop is admissible at x0
    assert result.pi.prob[0].tolist() == [1.0, 0.0]
    assert result.q[0, 0, 0] == pytest.approx(
        1.0 / (1.0 - g2_rewarded.gamma), abs=1e-7)
    # the non-member state copies the safety policy as a point mass
    assert result.pi.prob[1, result.pi_h.action[1]] == 1.0
    assert result.invariant_set.member.tolist() == [True, False]
    assert all(count == 1 for count in result.trace.member_counts())
    report = dpi.check_convergence(result.trace, 1e-8)
    assert report.converged and report.monotone and report.constrained_ok


def test_infeasible_game_raises(g3):
    with pytest.raises(InfeasibleGame):
        dpi.run(g3, DpiConfig(m=3, n=2))


def test_terminal_tables_match_standalone_solves():
    for seed in (2, 5, 7):
        spec = make_random_spec(seed)
        result = dpi.run(spec, DpiConfig(m=40, n=2, tol=1e-11))
        direct = safety.solve(spec, safety.optimal_backup, tol=1e-11).q
        assert np.abs(result.q_h - direct).max() <= 1e-6
        assert result.trace.final_constrained_residual <= 1e-6

        # terminal task values on member cells equal the constrained fixed
        # point recomputed from scratch on the terminal invariant set
        inv = result.invariant_set
        scratch = perf.solve(spec, perf.constrained_backup, inv, tol=1e-11).q
        cells = np.broadcast_to(inv.member[:, None, None]
                                & inv.admissible[:, :, None], spec.shape)
        assert np.abs((result.q - scratch)[cells]).max() <= 1e-6


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
        task_set = InvariantSet(member, result.pi.support() & member[:, None])
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


def test_check_convergence_flags_shuffled_trace():
    trace = DpiTrace(steps=[_step(), _step(decrease=1.0, delta=1.0)],
                     final_constrained_residual=0.0)
    report = dpi.check_convergence(trace, 1e-8)
    assert not report.monotone_values
    assert not report.converged

    shrinking = DpiTrace(steps=[_step(members=2), _step(members=1)],
                         final_constrained_residual=0.0)
    assert not dpi.check_convergence(shrinking, 1e-8).monotone_members


def test_check_convergence_rejects_empty_trace():
    with pytest.raises(ValueError):
        dpi.check_convergence(DpiTrace(), 1e-8)


def test_config_validation(g1):
    with pytest.raises(ValueError):
        dpi.run(g1, DpiConfig(m=0))
    with pytest.raises(ValueError):
        dpi.run(g1, DpiConfig(n=0))
    with pytest.raises(ValueError):
        dpi.run(g1, DpiConfig(tol=0.0))
