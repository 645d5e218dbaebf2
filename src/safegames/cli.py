"""Command-line entry point: solve, verify, and sweep commands.

Game specs travel as JSON with fields n_states, n_u, n_a, gamma, gamma_h,
transition (nested x -> u -> a lists of state indices), reward (same shape),
h (per-state constraint values) and optional labels.  Unknown fields are
rejected.  Q tables export as CSV with one row per (x, u, a) cell and 12
significant digits; invariant sets render as binary PGM with 255 = member,
128 = boundary-ambiguous, 0 = non-member.

Exit codes: 0 success, 1 I/O or schema error, 2 infeasible game,
3 iteration budget exhausted, 4 verification property failed,
5 enumeration budget exceeded.  Diagnostics go to stderr; data goes to
files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import dpi, envs, oracle, perf, safety, verify
from .errors import BudgetExceeded, InfeasibleGame, MaxIterExceeded
from .game import GameSpec, validate

_REQUIRED_FIELDS = ("n_states", "n_u", "n_a", "gamma", "gamma_h",
                    "transition", "reward", "h")
_OPTIONAL_FIELDS = ("labels",)


class SchemaError(ValueError):
    pass


def load_game(path) -> Tuple[GameSpec, Optional[list]]:
    """Load a game spec (and optional state labels) from JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    unknown = sorted(set(data) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS))
    if unknown:
        raise SchemaError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_FIELDS) - set(data))
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")

    transition = np.asarray(data["transition"])
    if transition.dtype.kind not in "iu":
        raise SchemaError("transition entries must be integers")
    spec = GameSpec(
        n_states=int(data["n_states"]), n_u=int(data["n_u"]),
        n_a=int(data["n_a"]), transition=transition,
        reward=np.asarray(data["reward"], dtype=np.float64),
        constraint=np.asarray(data["h"], dtype=np.float64),
        gamma=float(data["gamma"]), gamma_h=float(data["gamma_h"]))
    report = validate(spec)
    if not report.ok:
        raise SchemaError("; ".join(report.errors))
    labels = data.get("labels")
    if labels is not None and len(labels) != spec.n_states:
        raise SchemaError("labels length must equal n_states")
    return spec, labels


def save_game(spec: GameSpec, path, labels=None) -> None:
    data = {
        "n_states": spec.n_states, "n_u": spec.n_u, "n_a": spec.n_a,
        "gamma": spec.gamma, "gamma_h": spec.gamma_h,
        "transition": spec.transition.tolist(),
        "reward": spec.reward.tolist(),
        "h": spec.constraint.tolist(),
    }
    if labels is not None:
        data["labels"] = list(labels)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_q_csv(path, q: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,u,a,value\n")
        n_states, n_u, n_a = q.shape
        for x in range(n_states):
            for u in range(n_u):
                for a in range(n_a):
                    fh.write(f"{x},{u},{a},{q[x, u, a]:.12g}\n")


def read_q_csv(path, shape) -> np.ndarray:
    """Load a table written by ``write_q_csv``; every (x, u, a) cell of
    ``shape`` must appear exactly once."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if table.shape[1:] != (4,):
        raise SchemaError(f"{path}: rows must be x,u,a,value")
    cells, values = table[:, :3], table[:, 3]
    if not np.isfinite(table).all():
        raise SchemaError(f"{path}: non-finite entry")
    if (cells != np.floor(cells)).any():
        raise SchemaError(f"{path}: cell indices must be integers")
    if ((cells < 0) | (cells >= shape)).any():
        raise SchemaError(f"{path}: cell index outside the table shape {shape}")
    flat = np.ravel_multi_index(cells.astype(np.int64).T, shape)
    size, covered = int(np.prod(shape)), np.unique(flat).size
    if flat.size != size or covered != size:
        raise SchemaError(f"{path}: expected each of the {size} cells once, "
                          f"got {flat.size} rows covering {covered}")
    q = np.empty(size)
    q[flat] = values
    return q.reshape(shape)


def write_trace_csv(path, trace: dpi.DpiTrace, n_states: int) -> None:
    lp_cols = ",".join(f"lp_value_{x}" for x in range(n_states))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,safety_delta,member_count,feasible,"
                 f"task_residual,task_delta,{lp_cols}\n")
        for k, step in enumerate(trace.steps):
            lp = ",".join(f"{v:.12g}" for v in step.lp_values)
            fh.write(f"{k},{step.safety_delta:.12g},{step.member_count},"
                     f"{int(step.feasible)},{step.task_residual:.12g},"
                     f"{step.task_delta:.12g},{lp}\n")


def write_pgm(path, inv: safety.InvariantSet, grid_shape=None) -> None:
    """Render the invariant set as a binary PGM, one pixel per state.

    Gridworld cells map to pixels (column = cell x, row = cell y); other
    games render as a single row.
    """
    n = inv.member.size
    if grid_shape is not None:
        width, height = grid_shape
        if width * height != n:
            raise ValueError("grid shape does not match the state count")
    else:
        width, height = n, 1
    pixels = np.zeros(n, dtype=np.uint8)
    pixels[inv.member] = 255
    pixels[inv.ambiguous] = 128
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.reshape(height, width).tobytes())


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("game source (pick one)")
    src.add_argument("--game", metavar="PATH", help="game spec JSON file")
    src.add_argument("--random", action="store_true",
                     help="seeded random game")
    src.add_argument("--grid", metavar="WxH",
                     help="gridworld of the given size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--states", type=int, default=8,
                        help="state count for --random")
    parser.add_argument("--nu", type=int, default=3,
                        help="protagonist actions for --random")
    parser.add_argument("--na", type=int, default=3,
                        help="adversary actions for --random")
    parser.add_argument("--hazard-frac", type=float, default=0.25,
                        help="hazard fraction for --random")
    parser.add_argument("--hazard", action="append", default=None,
                        metavar="X,Y", help="gridworld hazard cell (repeatable)")
    parser.add_argument("--goal", metavar="X,Y", default=None,
                        help="gridworld goal cell (default: opposite corner)")
    parser.add_argument("--adv", type=int, choices=(0, 1), default=1,
                        help="gridworld adversary push strength")
    parser.add_argument("--gamma", type=float, default=None,
                        help="override the performance discount")
    parser.add_argument("--gamma-h", type=float, default=None,
                        help="override the safety discount")


def _parse_cell(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError(f"bad cell {text!r}, expected X,Y")
    return int(parts[0]), int(parts[1])


def _resolve_game(args) -> Tuple[GameSpec, Optional[Tuple[int, int]]]:
    """Build the game from CLI flags; returns the spec and, for gridworlds,
    the (width, height) used by the PGM render."""
    sources = [bool(args.game), bool(args.random), bool(args.grid)]
    if sum(sources) != 1:
        raise SchemaError("exactly one of --game, --random, --grid is required")
    grid_shape = None
    if args.game:
        spec, _labels = load_game(args.game)
    elif args.random:
        params = envs.RandomGameParams(
            n_states=args.states, n_u=args.nu, n_a=args.na,
            hazard_fraction=args.hazard_frac, seed=args.seed)
        spec = envs.random_game(params)
    else:
        try:
            w_text, h_text = args.grid.lower().split("x")
            width, height = int(w_text), int(h_text)
        except ValueError as exc:
            raise SchemaError(f"bad grid size {args.grid!r}, expected WxH") from exc
        hazards = tuple(_parse_cell(h) for h in (args.hazard or ()))
        goal = _parse_cell(args.goal) if args.goal else (width - 1, height - 1)
        params = envs.GridworldParams(
            width=width, height=height, hazard_cells=hazards,
            goal_cell=goal, adversary_strength=args.adv)
        spec = envs.gridworld(params)
        grid_shape = (width, height)
    overrides = {}
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.gamma_h is not None:
        overrides["gamma_h"] = args.gamma_h
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    report = validate(spec)
    if not report.ok:
        raise SchemaError("; ".join(report.errors))
    return spec, grid_shape


def cmd_solve(args) -> int:
    spec, grid_shape = _resolve_game(args)
    cfg = dpi.DpiConfig(m=args.m, n=args.n, tol=args.tol)
    result = dpi.run(spec, cfg, max_iter=args.max_iter)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    policy = {
        "task_policy": result.pi.prob.tolist(),
        "safety_policy": result.pi_h.action.tolist(),
        "member": result.invariant_set.member.astype(int).tolist(),
        # the two sides of the objective, reported side by side per state
        "state_value": perf.state_value(result.q, result.pi).tolist(),
        "safety_state_value": safety.state_value(result.q_h).tolist(),
    }
    with open(out / "policy.json", "w", encoding="utf-8") as fh:
        json.dump(policy, fh, sort_keys=True, indent=1)
        fh.write("\n")
    write_q_csv(out / "qh.csv", result.q_h)
    write_q_csv(out / "q.csv", result.q)
    write_pgm(out / "set.pgm", result.invariant_set, grid_shape)
    write_trace_csv(out / "trace.csv", result.trace, spec.n_states)
    if result.trace.budget_exhausted:
        print(f"warning: outer loop ran all {cfg.m} steps without converging",
              file=sys.stderr)
    print(f"solved: {result.invariant_set.member_count()}/{spec.n_states} "
          f"member states, {len(result.trace.steps)} outer steps",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    spec, _ = _resolve_game(args)
    q_h = read_q_csv(args.qh, spec.shape) if args.qh else None
    enum_mode = "force" if args.enum else "auto"
    results = verify.run_all(spec, pairs=args.pairs, seed=args.seed,
                             enum_mode=enum_mode, q_h=q_h, tol=args.tol)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 4


def cmd_sweep(args) -> int:
    spec, _ = _resolve_game(args)
    gammas = [float(g) for g in args.gammas.split(",")]
    tables = oracle.discounted_sweep(spec, gammas, tol=args.tol)
    lines = ["x,u,a,gamma_h,value"]
    for gamma_h in gammas:
        q = tables[gamma_h]
        for x in range(spec.n_states):
            for u in range(spec.n_u):
                for a in range(spec.n_a):
                    lines.append(f"{x},{u},{a},{gamma_h:.12g},{q[x, u, a]:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser(config=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safegames",
        description="Tabular solver and verifier for constrained zero-sum "
                    "Markov games.",
        epilog="Option precedence: explicit flag > --config file entry > "
               "built-in default.  The config file is a flat JSON object "
               "keyed by option names with dashes replaced by underscores.")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON file providing option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the dual iteration and export artifacts")
    _add_source_args(p_solve)
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--m", type=int, default=30, help="outer iterations")
    p_solve.add_argument("--n", type=int, default=2,
                         help="safety rounds per outer iteration")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iter", type=int, default=safety.DEFAULT_MAX_ITER,
                         help="sweep budget per fixed-point solve")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run oracle cross-checks")
    _add_source_args(p_verify)
    p_verify.add_argument("--pairs", type=int, default=200,
                          help="random pairs per operator property")
    p_verify.add_argument("--enum", action="store_true",
                          help="force full policy enumeration for sign "
                               "certification (may exceed the budget)")
    p_verify.add_argument("--qh", metavar="PATH", default=None,
                          help="check a stored safety table instead of "
                               "solving one")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="export safety fixed points per discount")
    _add_source_args(p_sweep)
    p_sweep.add_argument("--gammas", default="0.9,0.99,0.999",
                         help="comma-separated safety discounts")
    p_sweep.add_argument("--out", default=None, help="CSV output file")
    p_sweep.add_argument("--tol", type=float, default=1e-10)
    p_sweep.set_defaults(func=cmd_sweep)

    if config:
        subparsers = (p_solve, p_verify, p_sweep)
        known = [{action.dest for action in p._actions} for p in subparsers]
        unknown = sorted(set(config).difference(*known))
        if unknown:
            raise SchemaError(f"unknown config keys: {', '.join(unknown)}")
        for p, dests in zip(subparsers, known):
            p.set_defaults(**{k: v for k, v in config.items() if k in dests})
    return parser


def _load_config(argv):
    """Pre-scan for --config so its entries can seed the parser defaults."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
        else:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise SchemaError("config file must hold a JSON object")
        return config
    return None


def main(argv=None) -> int:
    try:
        parser = build_parser(_load_config(argv))
    except (SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleGame:
        print("infeasible: max max min Q_h^* < 0", file=sys.stderr)
        return 2
    except MaxIterExceeded as exc:
        print(f"iteration budget exhausted: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"enumeration budget exceeded: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
