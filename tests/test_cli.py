import json

import numpy as np
import pytest

from safegames import cli
from safegames.cli import SchemaError, load_game, save_game
from safegames.envs import RandomGameParams, random_game


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
    assert "infeasible: max max min Q_h^* < 0" in capsys.readouterr().err


def test_solve_reproducible_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                     "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--random", "--seed", "7", "--states", "8",
                     "--out", str(out_b)]) == 0
    for name in ("policy.json", "qh.csv", "q.csv", "set.pgm", "trace.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_solve_max_iter_exit_code(tmp_path):
    code = cli.main(["solve", "--random", "--seed", "3", "--states", "6",
                     "--max-iter", "5", "--out", str(tmp_path / "x")])
    assert code == 3


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
                                   "index_minus_1"])
def test_verify_rejects_malformed_safety_table(tmp_path, capsys, fault):
    cells = [[x, u, a] for x in range(16) for u in range(5) for a in range(5)]
    if fault == "missing":
        cells.pop()
    elif fault == "duplicate":
        cells[-1] = cells[0]
    elif fault == "index_99":
        cells[-1][0] = 99
    else:
        cells[-1][0] = -1
    qh = tmp_path / "qh.csv"
    qh.write_text("x,u,a,value\n"
                  + "".join(f"{x},{u},{a},0.5\n" for x, u, a in cells))
    code = cli.main(["verify", "--grid", "4x4", "--hazard", "0,0",
                     "--pairs", "5", "--qh", str(qh)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and "qh.csv" in captured.err
    assert captured.out == ""


def test_verify_enum_budget_exit_code(tmp_path, capsys):
    code = cli.main(["verify", "--random", "--states", "12", "--enum",
                     "--pairs", "10"])
    assert code == 5
    assert "enumeration budget exceeded" in capsys.readouterr().err


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


def test_config_rejects_keys_no_command_knows(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 7, "threads": 2}))
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--out", str(tmp_path / "a")]) == 1
    assert "unknown config keys: threads" in capsys.readouterr().err
    # a key only another subcommand uses is accepted
    config.write_text(json.dumps({"seed": 7, "gammas": "0.9"}))
    assert cli.main(["--config", str(config), "solve", "--random",
                     "--out", str(tmp_path / "b")]) == 0


def test_solve_warns_when_outer_budget_runs_out(tmp_path, capsys):
    assert cli.main(["solve", "--random", "--seed", "2", "--m", "1",
                     "--out", str(tmp_path / "a")]) == 0
    assert "warning: outer loop ran all 1 steps" in capsys.readouterr().err
    assert cli.main(["solve", "--grid", "4x4", "--hazard", "0,0",
                     "--out", str(tmp_path / "b")]) == 0
    assert "warning" not in capsys.readouterr().err


def test_gamma_overrides(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["solve", "--random", "--seed", "2", "--states", "4",
                     "--nu", "2", "--na", "2", "--hazard-frac", "0",
                     "--gamma", "0.5", "--gamma-h", "0.9", "--out", str(out)])
    assert code == 0
    bad = cli.main(["solve", "--random", "--seed", "2", "--gamma-h", "1.5",
                    "--out", str(out)])
    assert bad == 1
