"""Smoke test for the benchmark: every workload at a tiny size.

    python3 -m pytest bench/smoke.py      (or: python3 bench/smoke.py)

Runs each workload in both passes with small games and checks that every
metric BENCHMARK.json names is printed with its unit and that no op fails.
It also checks the linear forward-invariance scan used by the output checks
against ``oracle.find_invariance_violations``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_unit_and_no_op_fails():
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert result["attempted"] >= 1, (workload, trace)
            assert result["failed"] == 0 and result["correct"], (workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[key]}, (
                workload, trace)


def test_exit_scan_matches_oracle_search():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import checks
    from safegames import envs, oracle
    from safegames.safety import InvariantSet

    rng = np.random.default_rng(0)
    leaky = 0
    for seed in range(30):
        spec = envs.random_game(envs.RandomGameParams(
            n_states=10, n_u=3, n_a=2, hazard_fraction=0.2, seed=seed))
        admissible = rng.random((spec.n_states, spec.n_u)) < 0.6
        member = admissible.any(axis=1)
        found = checks.invariance_exits(spec, member, admissible)
        violations, _ = oracle.find_invariance_violations(
            spec, InvariantSet(member=member, admissible=admissible))
        assert set(found) == set(violations)
        leaky += bool(found)
    assert leaky > 0


if __name__ == "__main__":
    test_exit_scan_matches_oracle_search()
    test_every_metric_printed_with_unit_and_no_op_fails()
    print("smoke: ok")
