import dataclasses
import inspect
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from safegames import cli, dpi, matrix_game, oracle, safety, verify
from safegames.cli import SchemaError, load_game
from safegames.envs import (GridworldParams, RandomGameParams,
                             gridworld, random_game)
from conftest import push_grid_hazards, save_game


def _write_g3(path):
    transition = [[[0 if u == a else 1 for a in range(2)] for u in range(2)]
                  for _ in range(1)]
    data = {
        "n_states": 2, "n_u": 2, "n_a": 2, "gamma": 0.95, "gamma_h": 0.9,
        "transition": [transition[0], [[1, 1], [1, 1]]],
        "reward": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "h": [1.0, -1.0],
    }
    path.write_text(json.dumps(data))


def test_round_trip_identity(tmp_path):
    spec = random_game(RandomGameParams(seed=5, n_states=5, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(spec, path, labels=[f"s{i}" for i in range(5)])
    loaded, labels = load_game(path)
    assert np.array_equal(loaded.transition, spec.transition)
    assert np.array_equal(loaded.reward, spec.reward)
    assert np.array_equal(loaded.constraint, spec.constraint)
    assert loaded.gamma == spec.gamma and loaded.gamma_h == spec.gamma_h
    assert labels == [f"s{i}" for i in range(5)]
    # a second save is byte-identical
    path2 = tmp_path / "g2.json"
    save_game(loaded, path2, labels=labels)
    assert path.read_bytes() == path2.read_bytes()


def test_schema_rejects_unknown_and_missing_fields(tmp_path):
    spec = random_game(RandomGameParams(seed=1, n_states=3, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(spec, path)
    data = json.loads(path.read_text())

    data["surprise"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="unknown fields"):
        load_game(path)

    del data["surprise"], data["gamma"]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="missing fields"):
        load_game(path)


def test_schema_rejects_float_transition(tmp_path):
    spec = random_game(RandomGameParams(seed=1, n_states=3, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(spec, path)
    data = json.loads(path.read_text())
    data["transition"][0][0][0] = 0.5
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="integers"):
        load_game(path)


def test_schema_rejects_invalid_spec(tmp_path):
    spec = random_game(RandomGameParams(seed=1, n_states=3, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(spec, path)
    data = json.loads(path.read_text())
    data["gamma_h"] = 1.0
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="gamma_h out of range"):
        load_game(path)


def test_solve_gridworld_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run1"
    code = cli.main(["solve", "--grid", "4x4", "--hazard", "0,0",
                     "--adv", "1", "--out", str(out)])
    assert code == 0
    for name in ("policy.json", "qh.csv", "q.csv", "set.pgm", "trace.csv"):
        assert (out / name).exists(), name

    pgm = (out / "set.pgm").read_bytes()
    assert pgm.startswith(b"P5\n4 4\n255\n")
    assert len(pgm) == len(b"P5\n4 4\n255\n") + 16
    body = pgm[len(b"P5\n4 4\n255\n"):]
    assert body[0] == 0  # hazard corner is not a member

    policy = json.loads((out / "policy.json").read_text())
    assert len(policy["task_policy"]) == 16
    assert len(policy["safety_policy"]) == 16

    header, *rows = (out / "qh.csv").read_text().splitlines()
    assert header == "x,u,a,value"
    assert len(rows) == 16 * 5 * 5


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "g3.json"
    _write_g3(path)
    codes = [cli.main(["solve", "--game", str(path),
                       "--out", str(tmp_path / f"out{i}")]) for i in range(2)]
    assert codes == [2, 2]
    assert ("infeasible: no state admits persistent safety: the returned "
            "invariant set is empty") in capsys.readouterr().err
    # a 300-state game with an empty viability kernel exits 2 as well
    assert cli.main(["solve", "--random", "--states", "300",
                     "--hazard-frac", "0.5", "--seed", "0",
                     "--out", str(tmp_path / "big")]) == 2


def test_trace_feasible_column_is_a_nonempty_member_set(tmp_path):
    # With one safety round per step this game has no member in step 0.
    out = tmp_path / "o"
    assert cli.main(["solve", "--random", "--states", "6", "--nu", "2",
                     "--na", "2", "--seed", "16", "--n", "1", "--m", "5",
                     "--out", str(out)]) == 0
    header, *rows = (out / "trace.csv").read_text().splitlines()
    names = header.split(",")
    col = {name: names.index(name) for name in ("member_count", "feasible")}
    cells = [row.split(",") for row in rows]
    counts = [int(c[col["member_count"]]) for c in cells]
    assert 0 in counts and max(counts) > 0
    assert [int(c[col["feasible"]]) for c in cells] == [int(n > 0) for n in counts]


def test_grid_artifacts_agree_with_the_returned_set(tmp_path, monkeypatch):
    # The solve-grid benchmark's first game: 30 hazards on a 32x32 push grid.
    # Warm-started safety solves reported 789 members in every trace step
    # against 993 returned, left 204 zero-valued member states unsettled and
    # gave them the safety point mass instead of a matrix-game strategy.
    argv = ["solve", "--grid", "32x32", "--adv", "1", "--out", str(tmp_path)]
    for x, y in push_grid_hazards():
        argv += ["--hazard", f"{x},{y}"]
    calls = []
    run = dpi.run

    def recording(spec, *args, **kwargs):
        calls.append((spec, run(spec, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(dpi, "run", recording)
    assert cli.main(argv) == 0
    (spec, result), = calls

    header, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    count = int(rows[-1].split(",")[header.split(",").index("member_count")])
    policy = json.loads((tmp_path / "policy.json").read_text())
    member = np.array(policy["member"], dtype=bool)
    assert np.array_equal(member, oracle.viability_kernel(spec))
    assert count == member.sum()
    pixels = (tmp_path / "set.pgm").read_bytes()[len(b"P5\n32 32\n255\n"):]
    assert np.array_equal(np.frombuffer(pixels, np.uint8),
                          np.where(member, 255, 0))
    strategy = matrix_game.solve_all(result.q,
                                     result.invariant_set.admissible)[0]
    task = np.array(policy["task_policy"])
    assert np.array_equal(task[member], strategy[member])


def test_solve_reproducible_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                     "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                     "--out", str(out_b)]) == 0
    for name in ("policy.json", "qh.csv", "q.csv", "set.pgm", "trace.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_solve_max_iter_exit_code(tmp_path, capsys):
    # Seed 1's evaluated pairs mix, so they sweep and run out of sweeps; a
    # pure pair is evaluated exactly and takes none.
    code = cli.main(["solve", "--random", "--seed", "1", "--states", "6",
                     "--max-iter", "5", "--out", str(tmp_path / "x")])
    assert code == 3
    assert capsys.readouterr().err.endswith(" after 5 sweeps\n")


def test_solve_missing_source_is_schema_error(tmp_path):
    assert cli.main(["solve", "--out", str(tmp_path / "x")]) == 1
    assert cli.main(["solve", "--grid", "nonsense",
                     "--out", str(tmp_path / "x")]) == 1


def test_verify_passes_on_small_game(tmp_path, capsys):
    spec = random_game(RandomGameParams(seed=2, n_states=4, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(spec, path)
    code = cli.main(["verify", "--game", str(path), "--pairs", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS sign_certification" in out
    assert "FAIL" not in out


def test_verify_detects_corrupted_safety_table(tmp_path, capsys):
    spec = random_game(RandomGameParams(seed=2, n_states=4, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(spec, path)
    qh = tmp_path / "qh.csv"
    lines = ["x,u,a,value"]
    for x in range(4):
        for u in range(2):
            for a in range(2):
                lines.append(f"{x},{u},{a},1.0")  # claims everything is safe
    qh.write_text("\n".join(lines) + "\n")
    code = cli.main(["verify", "--game", str(path), "--pairs", "20",
                     "--qh", str(qh)])
    assert code == 4
    assert "FAIL sign_certification" in capsys.readouterr().out


@pytest.mark.parametrize("fault", ["missing", "duplicate", "index_99",
                                   "index_minus_1", "header_only", "empty"])
def test_verify_rejects_malformed_safety_table(tmp_path, capsys, fault):
    cells = [[x, u, a] for x in range(16) for u in range(5) for a in range(5)]
    if fault == "missing":
        cells.pop()
    elif fault == "duplicate":
        cells[-1] = cells[0]
    elif fault == "index_99":
        cells[-1][0] = 99
    elif fault == "index_minus_1":
        cells[-1][0] = -1
    else:
        cells = []
    qh = tmp_path / "qh.csv"
    qh.write_text("" if fault == "empty" else "x,u,a,value\n"
                  + "".join(f"{x},{u},{a},0.5\n" for x, u, a in cells))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line is all stderr gets
        code = cli.main(["verify", "--grid", "4x4", "--hazard", "0,0",
                         "--pairs", "5", "--qh", str(qh)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {qh}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def _write_rows(fh, q, prefix=""):
    """The row-at-a-time writer that ``cli._write_cells`` replaced: the
    reference for its bytes."""
    for x in range(q.shape[0]):
        for u, row in enumerate(q[x].tolist()):
            for a, value in enumerate(row):
                fh.write(f"{x},{u},{a},{prefix}{value:.12g}\n")


_AWKWARD_VALUES = (-0.0, 1e-300, 1 / 3, -7.25, 1e17)
# -0.0 beside 0.0 in one block, two NaN bit patterns and the least subnormal
_NON_FINITE = (np.nan, -np.nan, np.inf, -np.inf, 5e-324, -0.0, 0.0)


def _awkward_tables(shape):
    """A finite table, one with non-finite values and one of long runs of
    a single value, each of ``shape``."""
    yield np.resize(_AWKWARD_VALUES, shape)
    yield np.resize(_NON_FINITE + _AWKWARD_VALUES, shape)
    yield np.resize(np.repeat(_NON_FINITE, 1000), shape)


# the last two span several 512-cell blocks and end in a partial one
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 4), (1000, 5, 5),
                                   (301, 6, 3)])
def test_q_csv_writes_the_row_writers_bytes(tmp_path, shape):
    for q in _awkward_tables(shape):
        for prefix in ("", "0.999,"):
            written, expected = io.StringIO(), io.StringIO()
            cli._write_cells(written, q, prefix)
            _write_rows(expected, q, prefix)
            assert written.getvalue() == expected.getvalue()
    q = np.resize(_AWKWARD_VALUES, shape)
    path = tmp_path / "q.csv"
    cli.write_q_csv(path, q)
    expected = io.StringIO()
    expected.write("x,u,a,value\n")
    _write_rows(expected, q)
    assert path.read_text() == expected.getvalue()
    # read back exactly what was written: the values at 12 digits
    back = cli.read_q_csv(path, shape)
    rounded = np.array([float(f"{v:.12g}") for v in q.ravel()]).reshape(shape)
    assert np.array_equal(back, rounded)
    assert np.array_equal(np.signbit(back), np.signbit(q))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(q=st.tuples(st.integers(1, 40), st.integers(1, 6), st.integers(1, 6))
       .flatmap(lambda shape: hnp.arrays(np.float64, shape)),
       prefix=st.sampled_from(["", "0.99,", "x{0}"]))
def test_cells_write_the_row_writers_bytes_on_drawn_tables(q, prefix):
    written, expected = io.StringIO(), io.StringIO()
    cli._write_cells(written, q, prefix)
    _write_rows(expected, q, prefix)
    assert written.getvalue() == expected.getvalue()


class _Discard:
    def write(self, text):
        pass


def _write_peak(n_states):
    q = np.resize(_NON_FINITE + _AWKWARD_VALUES, (n_states, 5, 5))
    q[::7] = np.arange(q[::7].size).reshape(q[::7].shape)  # distinct runs
    tracemalloc.start()
    try:
        cli._write_cells(_Discard(), q, "0.999,")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cells_writer_memory_is_bounded_per_block():
    small, large = _write_peak(1024), _write_peak(16384)
    assert large <= 1.1 * small, (small, large)


def _write_trace_rows(path, trace, n_states):
    """The f-string trace writer that ``cli.write_trace_csv`` replaced: the
    reference for its bytes."""
    lp_cols = ",".join(f"lp_value_{x}" for x in range(n_states))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,safety_delta,member_count,feasible,"
                 f"task_residual,task_delta,newton,{lp_cols}\n")
        for k, step in enumerate(trace.steps):
            lp = ",".join(f"{v:.12g}" for v in step.lp_values)
            fh.write(f"{k},{step.safety_delta:.12g},{step.member_count},"
                     f"{int(step.member_count > 0)},{step.task_residual:.12g},"
                     f"{step.task_delta:.12g},{step.newton:.12g},{lp}\n")


@pytest.mark.parametrize("spec", [
    gridworld(GridworldParams(width=8, height=8, goal_cell=(7, 7),
                              hazard_cells=push_grid_hazards(8, 6))),
    random_game(RandomGameParams(seed=3, n_states=40, n_u=4, n_a=3,
                                 hazard_fraction=0.1)),
], ids=["grid8x8", "random40"])
def test_trace_csv_writes_the_row_writers_bytes(tmp_path, spec):
    trace = dpi.run(spec, dpi.DpiConfig()).trace
    assert len(trace.steps) > 1
    assert any(np.isnan(step.lp_values).any() for step in trace.steps)
    cli.write_trace_csv(tmp_path / "written.csv", trace, spec.n_states)
    _write_trace_rows(tmp_path / "expected.csv", trace, spec.n_states)
    assert ((tmp_path / "written.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def test_sweep_out_writes_the_row_writers_bytes(tmp_path, monkeypatch):
    spec = random_game(RandomGameParams(seed=4, n_states=3, n_u=2, n_a=4))
    game_path, out_path = tmp_path / "g.json", tmp_path / "sweep.csv"
    save_game(spec, game_path)
    tables = {0.9: np.resize(_AWKWARD_VALUES, spec.shape),
              0.99: -np.resize(_AWKWARD_VALUES[::-1], spec.shape)}
    monkeypatch.setattr(cli.safety, "solve",
                        lambda game: tables[game.gamma_h])
    assert cli.main(["sweep", "--game", str(game_path), "--gammas", "0.9,0.99",
                     "--out", str(out_path)]) == 0
    expected = io.StringIO()
    expected.write("x,u,a,gamma_h,value\n")
    for gamma_h, q in tables.items():
        _write_rows(expected, q, f"{gamma_h:.12g},")
    assert out_path.read_text() == expected.getvalue()


def test_sweep_closed_form_to_stdout(tmp_path, capsys):
    path = tmp_path / "g2.json"
    data = {
        "n_states": 2, "n_u": 2, "n_a": 1, "gamma": 0.95, "gamma_h": 0.9,
        "transition": [[[0], [1]], [[1], [1]]],
        "reward": [[[0.0], [0.0]], [[0.0], [0.0]]],
        "h": [1.0, -1.0],
    }
    path.write_text(json.dumps(data))
    code = cli.main(["sweep", "--game", str(path),
                     "--gammas", "0.9,0.99,0.999"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x,u,a,gamma_h,value"
    values = {}
    for line in out[1:]:
        x, u, a, g, v = line.split(",")
        if (x, u, a) == ("0", "1", "0"):
            values[g] = float(v)
    assert values["0.9"] == pytest.approx(-0.8, abs=1e-9)
    assert values["0.99"] == pytest.approx(-0.98, abs=1e-9)
    assert values["0.999"] == pytest.approx(-0.998, abs=1e-9)


def test_sweep_to_file(tmp_path):
    spec = random_game(RandomGameParams(seed=4, n_states=4, n_u=2, n_a=2))
    game_path = tmp_path / "g.json"
    save_game(spec, game_path)
    out_path = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--game", str(game_path), "--gammas", "0.9",
                     "--out", str(out_path)])
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[0] == "x,u,a,gamma_h,value"
    assert len(rows) == 1 + 4 * 2 * 2


def test_sweep_writes_the_exact_tables(capsys):
    assert cli.main(["sweep", "--random", "--states", "4", "--nu", "2",
                     "--na", "2", "--gammas", "0.9,0.999"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    spec = random_game(RandomGameParams(n_states=4, n_u=2, n_a=2))
    expected = []
    for gamma_h in (0.9, 0.999):
        strict = dataclasses.replace(spec, gamma_h=gamma_h)
        q = safety.solve(strict)
        expected += [f"{x},{u},{a},{gamma_h:.12g},{q[x, u, a]:.12g}"
                     for x, u, a in np.ndindex(spec.shape)]
    assert rows == expected
    # --tol went with the value iteration it stopped
    assert cli.main(["sweep", "--random", "--tol", "1e-10"]) == 1
    assert capsys.readouterr().err == (
        "error: safegames: unrecognized arguments: --tol 1e-10\n")


def test_config_file_precedence(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 7, "states": 8}))
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    # config supplies the seed
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                     "--out", str(out_b)]) == 0
    assert (out_a / "qh.csv").read_bytes() == (out_b / "qh.csv").read_bytes()
    # an explicit flag beats the config entry
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--seed", "5", "--out", str(out_c)]) == 0
    assert (out_c / "qh.csv").read_bytes() != (out_a / "qh.csv").read_bytes()
    # a broken config reports a schema error
    config.write_text("[1, 2]")
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--out", str(out_c)]) == 1


@pytest.mark.parametrize("form", [["--config", "{}"], ["--conf", "{}"],
                                  ["--conf={}"], ["--c", "{}"]],
                         ids=["config", "conf", "conf=", "c"])
def test_config_option_abbreviations_read_the_file(tmp_path, form):
    # argparse accepts unambiguous prefixes of --config; each must load it
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 2}))
    argv = [token.format(config) for token in form]
    assert cli.main(argv + ["solve", "--random",
                            "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["solve", "--random", "--seed", "2",
                     "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "qh.csv").read_bytes()
            == (tmp_path / "b" / "qh.csv").read_bytes())


def test_the_last_config_file_counts(tmp_path):
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    first.write_text(json.dumps({"seed": 5, "m": 2.5}))
    last.write_text(json.dumps({"seed": 7}))
    assert cli.main(["--config", str(first), f"--config={last}", "solve",
                     "--random", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["solve", "--random", "--seed", "7",
                     "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "qh.csv").read_bytes()
            == (tmp_path / "b" / "qh.csv").read_bytes())


def test_config_rejects_keys_no_command_knows(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 7, "threads": 2}))
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--out", str(tmp_path / "a")]) == 1
    assert "unknown config keys: threads" in capsys.readouterr().err
    # the removed --enum flag is unknown as a config key and as a flag
    config.write_text(json.dumps({"enum": True}))
    assert cli.main(["--config", str(config), "verify", "--random"]) == 1
    assert "unknown config keys: enum" in capsys.readouterr().err
    assert cli.main(["verify", "--random", "--enum"]) == 1
    assert capsys.readouterr().err == (
        "error: safegames: unrecognized arguments: --enum\n")
    # a key only another subcommand uses is accepted
    config.write_text(json.dumps({"seed": 7, "gammas": "0.9"}))
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("entry, command, what", [
    ({"tol": None}, "solve", "tol must be a number"),
    ({"tol": "1e-10"}, "verify", "tol must be a number"),
    ({"m": 2.5}, "solve", "m must be an integer"),
    ({"m": True}, "solve", "m must be an integer"),
    ({"seed": "3"}, "verify", "seed must be an integer"),
    ({"gammas": 5}, "sweep", "gammas must be a string"),
    ({"random": 1}, "sweep", "random must be true or false"),
    ({"hazard": "1,1"}, "solve", "hazard must be a list of strings"),
    ({"hazard": [[1, 1]]}, "solve", "hazard must be a list of strings"),
])
def test_config_value_of_the_wrong_type_is_a_schema_error(
        tmp_path, capsys, entry, command, what):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(entry))
    argv = ["--config", str(config), command, "--grid", "4x4"]
    if command == "solve":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: config key {what}\n"
    assert not (tmp_path / "o").exists()


def test_config_values_of_the_right_type_run(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"m": 5, "tol": 1, "random": False,
                                  "hazard": ["0,0"], "gammas": "0.9"}))
    assert cli.main(["--config", str(config), "solve", "--grid", "4x4",
                     "--out", str(tmp_path / "o")]) == 0
    assert "15/16 member states" in capsys.readouterr().err


def test_solve_warns_when_outer_budget_runs_out(tmp_path, capsys):
    assert cli.main(["solve", "--random", "--seed", "2", "--m", "1",
                     "--out", str(tmp_path / "a")]) == 0
    assert "warning: outer loop ran all 1 steps" in capsys.readouterr().err
    assert cli.main(["solve", "--grid", "4x4", "--hazard", "0,0",
                     "--out", str(tmp_path / "b")]) == 0
    assert "warning" not in capsys.readouterr().err


def test_solve_random_300_converges_and_reports_its_residual(tmp_path,
                                                           capsys):
    out = tmp_path / "o"
    assert cli.main(["solve", "--random", "--states", "300", "--nu", "6",
                     "--na", "3", "--hazard-frac", "0.1", "--seed", "0",
                     "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning" not in err
    residual = float(err.split("constrained residual ")[1])
    assert residual <= 1e-10

    header, *rows = (out / "trace.csv").read_text().splitlines()
    names = header.split(",")
    assert names[:7] == ["step", "safety_delta", "member_count", "feasible",
                         "task_residual", "task_delta", "newton"]
    assert names[7:] == [f"lp_value_{x}" for x in range(300)]
    cells = np.array([row.split(",") for row in rows], dtype=float)
    newton = cells[:, names.index("newton")]
    assert newton[0] == 0.0 and (newton[1:] == 1.0).any()
    assert ((newton >= 0.0) & (newton <= 1.0)).all()
    assert cells[-1, names.index("task_residual")] <= 1e-10
    # lp values stay NaN off the member set
    member = np.array(json.loads((out / "policy.json").read_text())["member"],
                      dtype=bool)
    lp = cells[:, 7:]
    assert np.isnan(lp[:, ~member]).all() and np.isfinite(lp[:, member]).all()


def test_chain_with_an_empty_kernel_is_infeasible_and_verifies(
        chain, tmp_path, capsys):
    # At gamma_h = 0.9 the sign test keeps the chain's first state although
    # its only action leads to a negative state; the closed set is empty.
    path = tmp_path / "chain.json"
    save_game(chain, path)
    assert cli.main(["solve", "--game", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert cli.main(["verify", "--game", str(path), "--pairs", "5"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines)
    assert "Traceback" not in captured.err


def test_gamma_overrides(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["solve", "--random", "--seed", "2", "--states", "4",
                     "--nu", "2", "--na", "2", "--hazard-frac", "0",
                     "--gamma", "0.5", "--gamma-h", "0.9", "--out", str(out)])
    assert code == 0
    bad = cli.main(["solve", "--random", "--seed", "2", "--gamma-h", "1.5",
                    "--out", str(out)])
    assert bad == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--grid", "4x4", "--hazard", "9,9"],
    ["solve", "--grid", "4x4", "--hazard", "1,x"],
    ["solve", "--grid", "4x4", "--hazard", "1,2,3"],
    ["solve", "--grid", "4x4", "--goal", "a,b"],
    ["solve", "--grid", "1x1"],
    ["solve", "--random", "--states", "0"],
    ["solve", "--random", "--hazard-frac", "1.0"],
    ["solve", "--random", "--m", "0"],
    ["solve", "--random", "--tol", "0"],
    ["solve", "--random", "--max-iter", "0"],
    ["solve", "--random", "--max-iter", "-1"],
    ["solve", "--random", "--tol", "inf"],
    ["solve", "--random", "--tol", "nan"],
    ["verify", "--random", "--tol", "-1"],
    ["verify", "--random", "--states", "4", "--pairs", "3", "--tol", "inf"],
    ["verify", "--random", "--tol", "nan"],
    ["sweep", "--random", "--gammas", "abc"],
    ["sweep", "--random", "--gammas", "1.5"],
    ["solve", "--random", "--seed", "-1"],
    ["solve", "--grid", "4x4", "--seed", "-5"],
    ["verify", "--grid", "4x4", "--seed", "-1"],
    ["verify", "--game", "g.json", "--seed", "-1"],
    ["sweep", "--random", "--seed", "-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_values_exit_1_without_traceback(tmp_path, monkeypatch,
                                                  capsys, argv):
    monkeypatch.chdir(tmp_path)
    _write_g3(tmp_path / "g.json")
    if argv[0] == "solve":
        argv = argv + ["--out", "out"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if "--seed" in argv:
        assert err == "error: --seed must be nonnegative\n"


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",
    b'{"n_states": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
], ids=["not-utf8", "nested-100000-deep"])
@pytest.mark.parametrize("flag", ["--game", "--config"])
def test_undecodable_json_exits_1_naming_the_file(tmp_path, capsys, content,
                                                  flag):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    argv = (["solve", "--game", str(path)] if flag == "--game"
            else ["--config", str(path), "solve", "--random"])
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("scale, gamma, code", [
    (2e307, 0.9, 1), (1e307, 0.9, 1), (1e307, 0.8, 0)])
def test_reward_scales_whose_values_overflow_are_rejected(
        tmp_path, capsys, scale, gamma, code):
    # Values lie within scale / (1 - gamma) of 0, so two of them differ by
    # up to twice that: 2e308 and more overflow a double, 1e308 does not.
    path, out = tmp_path / "g.json", tmp_path / "out"
    path.write_text(json.dumps({
        "n_states": 2, "n_u": 2, "n_a": 1, "gamma": gamma, "gamma_h": 0.9,
        "transition": [[[0], [1]], [[1], [0]]],
        "reward": [[[scale], [scale]], [[-scale], [-scale]]],
        "h": [1.0, 1.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the accepted side
        solve = cli.main(["solve", "--game", str(path), "--out", str(out)])
        verify = cli.main(["verify", "--game", str(path), "--pairs", "3"])
    err = capsys.readouterr().err
    assert solve == verify == code
    if code:
        assert err.count("error: reward scale overflows") == 2
        assert not out.exists()
    else:
        q = cli.read_q_csv(out / "q.csv", (2, 2, 1))
        assert np.isfinite(q).all() and np.abs(q).max() > 1e307
        policy = json.loads((out / "policy.json").read_text())
        assert np.isfinite(policy["state_value"]).all()


@pytest.mark.parametrize("field,value", [
    ("n_states", "abc"),
    ("n_states", 2.5),
    ("n_u", True),
    ("reward", "abc"),
    ("reward", [[["1.0", "1.0"], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
    ("transition", [[[0, 1], [1]], [[1, 1], [1, 1]]]),
    ("gamma", None),
    ("h", [1.0, None]),
    ("labels", 5),
], ids=lambda v: str(v)[:16])
def test_malformed_spec_field_exits_1_naming_it(tmp_path, capsys, field,
                                                value):
    path = tmp_path / "g.json"
    _write_g3(path)
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=f"^{field} must be "):
        load_game(path)
    assert cli.main(["solve", "--game", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ") and "Traceback" not in err


def test_lp_numerical_failure_exits_1_without_traceback(tmp_path, capsys):
    # Rewards scaled by 1e12 break the simplex's absolute pivot tolerance
    # on this game (1e9 still solves); the failure is reported, not raised.
    spec = random_game(RandomGameParams(seed=5, n_states=6, n_u=2, n_a=2))
    path = tmp_path / "g.json"
    save_game(dataclasses.replace(spec, reward=spec.reward * 1e12), path)
    assert cli.main(["solve", "--game", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ")
    assert "certificate gap" in err and "Traceback" not in err


_SWEEP = ["sweep", "--random", "--nu", "2", "--na", "2", "--gammas", "0.9"]


@pytest.fixture
def parser_builds(monkeypatch):
    """Record the config of every ``build_parser`` call that ``main`` makes
    itself, from an empty default-parser cache."""
    builds = []
    build = cli.build_parser

    def recording(config=None):
        builds.append(config)
        return build(config)

    monkeypatch.setattr(cli, "build_parser", recording)
    cli._default_parser.cache_clear()
    yield builds
    cli._default_parser.cache_clear()


def _swept_states(capsys):
    rows = capsys.readouterr().out.splitlines()[1:]
    return len({row.split(",")[0] for row in rows})


def test_main_calls_share_one_parser(parser_builds, capsys):
    assert cli.main(_SWEEP + ["--states", "4"]) == 0
    assert _swept_states(capsys) == 4
    assert cli.main(_SWEEP + ["--states", "5"]) == 0
    assert _swept_states(capsys) == 5
    info = cli._default_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert parser_builds == []


def test_config_run_builds_its_own_parser_without_leaking(
        tmp_path, parser_builds, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"states": 5}))
    assert cli.main(_SWEEP) == 0
    assert _swept_states(capsys) == 8
    cached = cli._default_parser()
    assert cli.main(["--config", str(config)] + _SWEEP) == 0
    assert _swept_states(capsys) == 5
    assert parser_builds == [{"states": 5}]
    assert cli.main(_SWEEP) == 0
    assert _swept_states(capsys) == 8
    assert cli._default_parser() is cached
    assert cli._default_parser.cache_info().misses == 1


def test_usage_error_leaves_the_cached_parser_usable(parser_builds, capsys):
    assert cli.main(["solve", "--no-such-flag"]) == 1
    assert capsys.readouterr().err.startswith("error: safegames solve: ")
    assert cli.main(_SWEEP + ["--states", "4"]) == 0
    assert _swept_states(capsys) == 4
    info = cli._default_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--random", "--seed", "abc", "--out", "o"],
     "safegames solve: argument --seed: invalid int value: 'abc'"),
    (["verify", "--random", "--pairs", "1.5"],
     "safegames verify: argument --pairs: invalid int value: '1.5'"),
    (["solve", "--random", "--adv", "2", "--out", "o"],
     "safegames solve: argument --adv: invalid choice: 2 (choose from 0, 1)"),
    (["solve", "--random", "--bogus", "--out", "o"],
     "safegames: unrecognized arguments: --bogus"),
    ([], "safegames: the following arguments are required: command"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_usage_errors_exit_1_with_one_error_line(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as usage:
            cli.main(argv)
        assert usage.value.code == 0
    assert "--pairs" in capsys.readouterr().out


def test_each_flag_default_is_its_owners_value():
    parse = cli.build_parser().parse_args
    solve = parse(["solve", "--random", "--out", "o"])
    verify_args = parse(["verify", "--random"])
    cfg, random, grid = dpi.DpiConfig(), RandomGameParams(), GridworldParams()
    assert ((solve.m, solve.n, solve.tol, solve.max_iter)
            == (cfg.m, cfg.n, cfg.tol, cfg.max_iter))
    for args in (solve, verify_args):
        assert ((args.states, args.nu, args.na, args.hazard_frac)
                == (random.n_states, random.n_u, random.n_a,
                    random.hazard_fraction))
        assert args.adv == grid.adversary_strength
    assert verify_args.pairs == verify.DEFAULT_PAIRS
    assert verify_args.tol == cfg.tol
    # the copies are gone: discounts belong to GameSpec, budgets to DpiConfig
    for params in (RandomGameParams, GridworldParams):
        names = {f.name for f in dataclasses.fields(params)}
        assert not names & {"gamma", "gamma_h"}
    assert "max_iter" not in inspect.signature(dpi.run).parameters
    assert "atol" not in inspect.signature(
        verify.induced_agreement_check).parameters


@pytest.mark.parametrize("name, content, message", [
    ("qh", "x,u,a,value\n0,0,abc,0.5\n", None),
    ("qh", "x,u,a,value\n0,0,0,nan\n", "non-finite entry"),
    ("qh", "x,u,a,value\n0,0,0.5,0.5\n", "cell indices must be integers"),
    ("game", "[1, 2]", "top-level JSON value must be an object"),
], ids=["qh-not-a-number", "qh-nan", "qh-fractional-index", "game-list"])
def test_malformed_input_files_exit_1_with_their_message(
        tmp_path, capsys, name, content, message):
    path = tmp_path / ("qh.csv" if name == "qh" else "g.json")
    path.write_text(content)
    source = (["--grid", "4x4", "--qh", str(path)] if name == "qh"
              else ["--game", str(path)])
    assert cli.main(["verify", "--pairs", "1"] + source) == 1
    err = capsys.readouterr().err
    if name == "qh":
        assert err.startswith(f"error: {path}: ")
    if message is None:  # numpy's own words for the cell it could not read
        assert "could not convert" in err
    else:
        assert err.endswith(f"{message}\n") and err.count("\n") == 1


@pytest.mark.parametrize("field, value, message", [
    ("n_states", 0, "n_states must be positive; transition shape (2, 2, 2) "
     "!= (0, 2, 2); reward shape (2, 2, 2) != (0, 2, 2); constraint shape "
     "(2,) != (0,)"),
    ("n_u", 0, "n_u must be positive; transition shape (2, 2, 2) != "
     "(2, 0, 2); reward shape (2, 2, 2) != (2, 0, 2)"),
    ("n_a", -1, "n_a must be positive; transition shape (2, 2, 2) != "
     "(2, 2, -1); reward shape (2, 2, 2) != (2, 2, -1)"),
    ("h", [1.0, -1.0, 2.0], "constraint shape (3,) != (2,)"),
])
def test_spec_count_and_shape_errors_exit_1(tmp_path, capsys, field, value,
                                            message):
    path = tmp_path / "g.json"
    _write_g3(path)
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    assert cli.main(["solve", "--game", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_goal_outside_the_grid_exits_1(tmp_path, capsys):
    assert cli.main(["solve", "--grid", "4x4", "--goal", "9,9",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: goal cell outside the grid\n"


def test_protagonist_budget_exits_3(tmp_path, capsys):
    assert cli.main(["solve", "--random", "--seed", "8", "--max-iter", "1",
                     "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("iteration budget exhausted: residual ")
    assert err.endswith(" after 1 protagonist improvements\n")


@pytest.mark.parametrize("budget, seed, message", [
    (1, 1, "adversary best response still switching after 1 policy "
     "iterations"),
    (1, 8, "after 1 iterations"),
    (3, 20, "adversary best response still switching after 3 policy "
     "iterations"),
    (3, 18, "after 3 iterations"),
])
def test_induced_oracle_budgets_exit_3(monkeypatch, capsys, budget, seed,
                                       message):
    # On 8-state 2x2 random games a budget of 1 or 3 runs out in the
    # adversary's best response on some seeds and in the outer strategy
    # iteration on others.
    monkeypatch.setattr(oracle, "INDUCED_MAX_ITER", budget)
    assert cli.main(["verify", "--random", "--seed", str(seed), "--nu", "2",
                     "--na", "2", "--pairs", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("iteration budget exhausted: ")
    assert err.endswith(f"{message}\n")
    if "adversary" not in message:
        assert err.startswith("iteration budget exhausted: induced game "
                              "residual ")
