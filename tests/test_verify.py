import dataclasses
import gc
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from safegames import InfeasibleGame
from safegames import dpi, matrix_game, oracle, perf, safety, verify
from conftest import make_random_spec
import operator_reference


def test_run_all_passes_on_tiny_game():
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    results = verify.run_all(spec, pairs=50, seed=0)
    names = [r.name for r in results]
    assert names == ["operator_contraction", "operator_monotonicity",
                     "set_inclusion", "sign_certification",
                     "forward_invariance", "induced_agreement"]
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_sign_certification_uses_kernel_beyond_budget():
    beyond = make_random_spec(0, n_states=12, n_u=3, n_a=3)
    within = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    assert 3 ** 12 * 3 ** 12 > oracle.ENUM_BUDGET >= 2 ** 4 * 2 ** 4
    for spec in (beyond, within):
        inv = safety.extract_invariant_set(
            safety.solve(spec), spec)
        result = verify.sign_certification_check(spec, inv)
        assert result.passed
        assert "kernel" in result.detail


def test_operator_checks_cover_the_task_backup(monkeypatch):
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    assert verify.contraction_check(spec, pairs=5).passed
    assert verify.monotonicity_check(spec, pairs=5).passed
    # expanding and order-reversing, so neither property can hold
    monkeypatch.setattr(perf, "minimax_policy_backup",
                        lambda q, spec, pi: -2.0 * q)
    assert not verify.contraction_check(spec, pairs=5).passed
    assert not verify.monotonicity_check(spec, pairs=5).passed


_CHECKS = [  # (union excess, reference excess, spread of d)
    (verify._contraction_excess, operator_reference.contraction_excess,
     (-2.0, 2.0)),
    (verify._monotonicity_drop, operator_reference.monotonicity_drop,
     (0.0, 1.0)),
]


@pytest.mark.parametrize("pairs", [1, 15, 16, 17, 200])
@pytest.mark.parametrize("game", [(0, 8, 2, 2), (3, 5, 3, 2), (7, 1, 1, 1)])
def test_union_blocks_give_each_pair_the_reference_excess(pairs, game):
    seed, n_states, n_u, n_a = game
    spec = make_random_spec(seed, n_states=n_states, n_u=n_u, n_a=n_a)
    for union_excess, reference_excess, spread in _CHECKS:
        rng = np.random.default_rng(seed)
        blocks = [verify._block(spec, min(verify._BLOCK, pairs - start), rng,
                                spread)
                  for start in range(0, pairs, verify._BLOCK)]
        assert [b[0].n_states for b in blocks[:-1]] == (
            [verify._BLOCK * n_states] * (len(blocks) - 1))
        union = np.concatenate([verify._pair_excess(spec, *b, union_excess)
                                for b in blocks])
        reference = np.concatenate([
            operator_reference.pair_excesses(spec, q, d, policies,
                                             reference_excess)
            for _, q, d, *policies in blocks])
        assert reference.shape == (pairs, 6)
        assert np.array_equal(union, reference)
        worst, violations, n_ops = verify._operator_check(
            spec, pairs, seed, spread, union_excess)
        assert worst == reference.max() and n_ops == 6
        assert violations == int((reference > verify._FLOAT_SLACK).sum()) == 0


def test_operator_checks_catch_a_violation_in_the_last_partial_block(
        monkeypatch):
    # 20 pairs are one full block of 16 and a last block of 4; only the
    # last copy of that last block sees a broken operator.
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    n, real = spec.n_states, perf.policy_backup

    def broken(q, game, pi):
        out = real(q, game, pi)
        if game.n_states == 4 * n:
            out[-n:] = -2.0 * q[-n:]  # expanding and order-reversing
        return out

    monkeypatch.setattr(perf, "policy_backup", broken)
    assert not verify.contraction_check(spec, pairs=20).passed
    assert not verify.monotonicity_check(spec, pairs=20).passed
    for union_excess, _, spread in _CHECKS:
        assert verify._operator_check(spec, 20, 0, spread,
                                      union_excess)[1] == 1
    assert verify.contraction_check(spec, pairs=16).passed
    assert verify.monotonicity_check(spec, pairs=16).passed


def test_operator_checks_peak_memory_stays_small():
    # The union blocks trade memory for time; a larger block size shows
    # here first (32 pairs per block peak at about 106 KB).
    spec = make_random_spec(1, n_states=8, n_u=2, n_a=2)
    verify.contraction_check(spec)  # numpy's first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        verify.contraction_check(spec)
        verify.monotonicity_check(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80_000


def test_run_all_runs_the_dual_iteration_once(monkeypatch):
    # The set checks judge dpi.run's set; no separate max-min solve runs.
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    solve, run = safety.solve, dpi.run
    calls = Counter()

    def counting_solve(game, pi_h=None, *args, **kwargs):
        calls["optimal_backup" if pi_h is None else "policy_backup"] += 1
        return solve(game, pi_h, *args, **kwargs)

    def counting_run(*args, **kwargs):
        calls["dpi.run"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(safety, "solve", counting_solve)
    monkeypatch.setattr(dpi, "run", counting_run)
    for q_h in (None, np.ones(spec.shape)):
        calls.clear()
        verify.run_all(spec, pairs=5, q_h=q_h)
        assert calls["dpi.run"] == 1
        assert calls["optimal_backup"] == 0
        assert calls["policy_backup"] > 0


def test_set_checks_judge_the_set_dpi_run_returns(monkeypatch):
    # One state outside the kernel, with h >= 0 and every action admissible,
    # joins dpi.run's set: that set is no longer the kernel, and no longer
    # closed, since the kernel is the largest closed set inside h >= 0.
    spec = make_random_spec(1, n_states=8, n_u=2, n_a=2)
    kernel = oracle.viability_kernel(spec)
    x = int(np.flatnonzero(~kernel & (spec.constraint >= 0.0))[0])
    run, engines = dpi.run, []

    def one_state_more(*args, **kwargs):
        result = run(*args, **kwargs)
        inv = result.invariant_set
        member, admissible = inv.member.copy(), inv.admissible.copy()
        member[x], admissible[x] = True, True
        return dataclasses.replace(
            result, invariant_set=safety.InvariantSet(member, admissible))

    def recording(spec, engine, *args):
        engines.append(engine)
        return verify.PropertyResult("induced_agreement", True, "recorded")

    monkeypatch.setattr(dpi, "run", one_state_more)
    # the induced-game oracle refuses a set with an exit
    monkeypatch.setattr(verify, "induced_agreement_check", recording)
    results = {r.name: r for r in verify.run_all(spec, pairs=5)}
    assert not results["sign_certification"].passed
    assert not results["forward_invariance"].passed
    assert results["set_inclusion"].passed
    assert [e.invariant_set.member[x] for e in engines] == [True]


def test_sign_certification_rejects_corrupted_table():
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    fake = np.ones(spec.shape)  # claims every state is safe
    result = verify.sign_certification_check(
        spec, safety.extract_invariant_set(fake, spec))
    assert not result.passed


def test_infeasible_game_checks_still_run(g3):
    results = verify.run_all(g3, pairs=20, seed=1)
    assert all(r.passed for r in results)
    induced = [r for r in results if r.name == "induced_agreement"][0]
    assert induced.detail == "no member states"


def _induced_agreement(spec, tol=1e-10):
    """The check on ``dpi.run``'s result, as ``run_all`` runs it."""
    try:
        engine = dpi.run(spec, dpi.DpiConfig(tol=tol))
    except InfeasibleGame:
        engine = None
    return verify.induced_agreement_check(spec, engine, tol)


def _count_batches(monkeypatch):
    """Count ``matrix_game.solve_all`` calls, in all and inside the engine
    side's dual iteration; returns the counter and the engine's counts."""
    calls, engine = Counter(), []
    solve_all, run = matrix_game.solve_all, dpi.run

    def counting(*args):
        calls["solve_all"] += 1
        return solve_all(*args)

    def dual_iteration(*args, **kwargs):
        before = calls["solve_all"]
        try:
            return run(*args, **kwargs)
        finally:
            engine.append(calls["solve_all"] - before)

    monkeypatch.setattr(matrix_game, "solve_all", counting)
    monkeypatch.setattr(dpi, "run", dual_iteration)
    return calls, engine


def test_induced_agreement_engine_takes_few_lp_batches(monkeypatch):
    # Value iteration of the constrained backup takes about 435 batches at
    # gamma 0.95; a solve that falls back to sweeping fails here.
    _, engine = _count_batches(monkeypatch)
    checked = 0
    for seed in range(12):
        spec = make_random_spec(seed, n_states=8, n_u=2, n_a=2)
        engine.clear()
        result = _induced_agreement(spec)
        assert result.passed, result.detail
        assert len(engine) == 1, (seed, engine)
        if result.detail == "no member states":
            continue
        assert engine[0] <= 20, (seed, engine)
        assert "outer steps" in result.detail
        checked += 1
    assert checked >= 5


def test_induced_agreement_checks_the_table_solve_ships():
    spec = make_random_spec(1, n_states=8, n_u=2, n_a=2)
    result = dpi.run(spec)
    assert verify.induced_agreement_check(spec, result).passed
    inv = result.invariant_set
    x = int(np.flatnonzero(inv.member)[0])
    u = int(np.flatnonzero(inv.admissible[x])[0])
    q = result.q.copy()
    q[x, u, 0] += 1e-3
    off_by_a_little = dataclasses.replace(result, q=q)
    result = verify.induced_agreement_check(spec, off_by_a_little)
    assert not result.passed
    assert result.detail.startswith("max member-cell gap 1.00e-03")


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e8])
def test_induced_agreement_passes_at_every_reward_scale(monkeypatch, scale):
    # From 1e6 up the values' rounding alone keeps the two tables more than
    # 1e-7 apart, and from 1e5 up the absolute tol lies below it: the dual
    # iteration runs out its step budget, the oracle stops where its values
    # stop rising by more than rounding, and the tolerance follows their
    # residuals and the rounding of both.
    base = make_random_spec(1, n_states=8, n_u=2, n_a=2)
    spec = dataclasses.replace(base, reward=scale * base.reward)
    calls, _ = _count_batches(monkeypatch)
    result = _induced_agreement(spec)
    assert result.passed, result.detail
    exhausted = "engine 30 outer steps, budget exhausted, residual"
    assert (exhausted in result.detail) == (scale >= 1e6), result.detail
    # within seconds: a solve that stops only at the absolute tol can run
    # out a budget of hundreds of thousands of LP batches at 1e8
    assert calls["solve_all"] <= 1_000


@pytest.mark.parametrize("scale", [1e6, 1e8])
@pytest.mark.parametrize("seed", [2, 5, 8, 10])
def test_induced_agreement_passes_at_large_reward_scales(seed, scale):
    # At 1e8 seeds 2, 8 and 10 fail a tolerance without the rounding of the
    # two residuals, which read 0 or a few ulps.  Seeds 5, 8 and 10 end on
    # pure strategy pairs, whose exact evaluation meets the absolute tol;
    # seed 2 still runs out its step budget a few ulps above it.
    base = make_random_spec(seed, n_states=8, n_u=2, n_a=2)
    spec = dataclasses.replace(base, reward=scale * base.reward)
    result = _induced_agreement(spec)
    assert result.passed, result.detail
    if seed == 2:
        assert "engine 30 outer steps, budget exhausted" in result.detail
    else:
        steps = re.search(r"engine (\d+) outer steps, residual", result.detail)
        assert steps and int(steps.group(1)) < 30, result.detail


def test_induced_agreement_passes_where_a_strict_switch_cycles():
    # At rewards x1e10 the adversary's policy iteration, switching on any
    # strict improvement, flips forever between two responses whose values
    # differ only by rounding; a switch needs more than 16 machine epsilons
    # times the largest |value|.
    base = make_random_spec(55, n_states=8, n_u=2, n_a=2)
    spec = dataclasses.replace(base, reward=1e10 * base.reward)
    result = _induced_agreement(spec)
    assert result.passed, result.detail


def test_induced_agreement_finishes_near_discount_one(monkeypatch):
    # Shapley iteration takes over 100,000 sweeps here (about 40 s, residual
    # still 2.2e-05); strategy iteration takes a few dozen batches.
    spec = make_random_spec(7, n_u=3, n_a=3, hazard_fraction=0, gamma=0.9999)
    calls, _ = _count_batches(monkeypatch)
    solve, batches = oracle.solve_induced_game, []

    def counting(*args):
        before = calls["solve_all"]
        try:
            return solve(*args)
        finally:
            batches.append(calls["solve_all"] - before)

    monkeypatch.setattr(oracle, "solve_induced_game", counting)
    results = {r.name: r for r in verify.run_all(spec, pairs=5)}
    assert results["induced_agreement"].passed, (
        results["induced_agreement"].detail)
    assert len(batches) == 1 and batches[0] <= 100, batches
