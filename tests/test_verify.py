from collections import Counter

import numpy as np

from safegames import oracle, perf, safety, verify
from conftest import make_random_spec


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
        result = verify.sign_certification_check(spec)
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


def test_run_all_solves_the_max_min_table_once(monkeypatch):
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    solve = safety.solve
    discounts = Counter()

    def counting(game, backup, *args, **kwargs):
        if backup is safety.optimal_backup:
            discounts[game.gamma_h] += 1
        return solve(game, backup, *args, **kwargs)

    monkeypatch.setattr(verify.safety, "solve", counting)
    verify.run_all(spec, pairs=5)
    assert discounts == {spec.gamma_h: 1, verify.CERTIFICATION_GAMMA: 1}
    discounts.clear()
    verify.run_all(spec, pairs=5, q_h=np.ones(spec.shape))
    assert discounts == {spec.gamma_h: 1}


def test_sign_certification_rejects_corrupted_table():
    spec = make_random_spec(2, n_states=4, n_u=2, n_a=2)
    fake = np.ones(spec.shape)  # claims every state is safe
    result = verify.sign_certification_check(spec, q_h=fake)
    assert not result.passed


def test_infeasible_game_checks_still_run(g3):
    results = verify.run_all(g3, pairs=20, seed=1)
    assert all(r.passed for r in results)
    induced = [r for r in results if r.name == "induced_agreement"][0]
    assert induced.detail == "no member states"
