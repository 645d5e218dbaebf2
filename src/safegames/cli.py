"""Command-line entry point: solve, verify, and sweep commands.

Game specs travel as JSON with fields n_states, n_u, n_a, gamma, gamma_h,
transition (nested x -> u -> a lists of state indices), reward (same shape),
h (per-state constraint values) and optional labels.  Counts must be
integers and the arrays rectangular; unknown fields are rejected.  Q tables
export as CSV with one row per (x, u, a) cell and 12 significant digits;
invariant sets render as binary PGM with 255 = member, 0 = non-member.

Exit codes: 0 success, 1 I/O, schema or flag-value error, or a numerical
failure of a matrix-game LP (printed as ``error: numerical failure: ...``),
2 infeasible game (the returned invariant set is empty), 3 a player's
improvement budget in the safety policy iteration or a task evaluation's
sweep budget ran out (a task discount near 1 can exhaust the latter), or
in ``verify`` the induced-game oracle's fixed budget of 1,000 strategy
iterations did (``oracle.INDUCED_MAX_ITER``),
4 verification property failed.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import warnings
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import dpi, envs, perf, safety, verify
from .errors import InfeasibleGame, MaxIterExceeded, NumericalFailure
from .game import GameSpec, validate

_REQUIRED_FIELDS = ("n_states", "n_u", "n_a", "gamma", "gamma_h",
                    "transition", "reward", "h")
_OPTIONAL_FIELDS = ("labels",)


class SchemaError(ValueError):
    pass


def _read_json(path):
    """Decode a JSON file; text that is not UTF-8 JSON, or nests too deep
    to decode, is a schema error naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_game(path) -> Tuple[GameSpec, Optional[list]]:
    """Load a game spec (and optional state labels) from JSON."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    unknown = sorted(set(data) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS))
    if unknown:
        raise SchemaError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_FIELDS) - set(data))
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")

    def field(name, kinds, what, scalar=False):
        try:
            value = np.asarray(data[name])
        except ValueError:  # ragged nesting
            value = np.asarray(None)
        if value.dtype.kind not in kinds or (scalar and value.ndim):
            raise SchemaError(f"{name} must be {what}")
        return value

    counts = {k: int(field(k, "iu", "an integer", True))
              for k in ("n_states", "n_u", "n_a")}
    spec = GameSpec(
        **counts,
        transition=field("transition", "iu", "an array of integers"),
        reward=field("reward", "iuf", "an array of numbers"),
        constraint=field("h", "iuf", "an array of numbers"),
        gamma=float(field("gamma", "iuf", "a number", True)),
        gamma_h=float(field("gamma_h", "iuf", "a number", True)))
    report = validate(spec)
    if not report.ok:
        raise SchemaError("; ".join(report.errors))
    labels = data.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == spec.n_states):
        raise SchemaError("labels must be a list of n_states entries")
    return spec, labels


# Cells per write of ``_write_cells``: its temporaries are bounded per block.
_BLOCK_CELLS = 512


def _format_distinct(values: np.ndarray):
    """Format a float64 array's entries to 12 significant digits, each
    distinct bit pattern once (so -0.0 keeps its sign and NaN needs no
    case).  Returns the distinct texts as a numpy bytes array and each
    entry's index into them, in flat order."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
    text = [b"%.12g" % v for v in distinct.view(np.float64).tolist()]
    return np.array(text, dtype=np.bytes_), inverse


def _byte_rows(texts) -> np.ndarray:
    """Byte strings as the rows of a NUL-padded uint8 matrix."""
    array = np.asarray(texts, dtype=np.bytes_)
    return array.view(np.uint8).reshape(array.size, -1)


def _write_cells(fh, q: np.ndarray, prefix: str = "") -> None:
    """Write one CSV row per (x, u, a) cell: the indices, ``prefix`` and the
    value to 12 significant digits.  Whole states go out in blocks of at
    most ``_BLOCK_CELLS`` cells (one state if it has more), one write per
    block.  A block's rows are laid out as bytes in a NUL-padded matrix,
    with each distinct value formatted once, and the padding is masked out,
    so ``prefix`` may hold any text but NUL and the writer's memory is
    bounded per block, whatever the table's size."""
    n_states, n_u, n_a = q.shape
    heads = _byte_rows([f",{u},{a},{prefix}".encode()
                        for u in range(n_u) for a in range(n_a)])
    step = max(1, _BLOCK_CELLS // len(heads))
    for x0 in range(0, n_states, step):
        xs = _byte_rows([b"%d" % x for x in range(n_states)[x0:x0 + step]])
        text, inverse = _format_distinct(q[x0:x0 + step])
        values = _byte_rows(text)[inverse].reshape(len(xs), len(heads), -1)
        head_end = xs.shape[1] + heads.shape[1]
        rows = np.zeros((len(xs), len(heads), head_end + values.shape[2] + 1),
                        np.uint8)
        rows[:, :, :xs.shape[1]] = xs[:, None]
        rows[:, :, xs.shape[1]:head_end] = heads
        rows[:, :, head_end:-1] = values
        rows[:, :, -1] = ord("\n")
        fh.write(rows[rows != 0].tobytes().decode())


def write_q_csv(path, q: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,u,a,value\n")
        _write_cells(fh, q)


def read_q_csv(path, shape) -> np.ndarray:
    """Load a table written by ``write_q_csv``; every (x, u, a) cell of
    ``shape`` must appear exactly once."""
    try:
        with warnings.catch_warnings():  # no rows: the shape check reports it
            warnings.simplefilter("ignore", UserWarning)
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
                 f"task_residual,task_delta,newton,{lp_cols}\n")
        for k, step in enumerate(trace.steps):
            text, inverse = _format_distinct(np.concatenate((
                [step.safety_delta, step.task_residual, step.task_delta,
                 step.newton], step.lp_values)))
            delta, *tail = text[inverse].tolist()
            fh.write(f"{k},{delta.decode()},{step.member_count},"
                     f"{int(step.member_count > 0)},"
                     f"{b','.join(tail).decode()}\n")


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


def _parse_cell(flag: str, text: str) -> Tuple[int, int]:
    try:
        x, y = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad {flag} {text!r}, expected X,Y") from exc
    return x, y


def _generate(generator, params) -> GameSpec:
    """Run a game generator, reporting its parameter guards as schema
    errors."""
    try:
        return generator(params)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _require_positive(args, *names) -> None:
    for name in names:
        if not 0 < getattr(args, name) < np.inf:
            raise SchemaError(f"--{name.replace('_', '-')} must be positive "
                              "and finite")


def _resolve_game(args) -> Tuple[GameSpec, Optional[Tuple[int, int]]]:
    """Build the game from CLI flags; returns the spec and, for gridworlds,
    the (width, height) used by the PGM render."""
    sources = [bool(args.game), bool(args.random), bool(args.grid)]
    if sum(sources) != 1:
        raise SchemaError("exactly one of --game, --random, --grid is required")
    if args.seed < 0:
        raise SchemaError("--seed must be nonnegative")
    grid_shape = None
    if args.game:
        spec, _labels = load_game(args.game)
    elif args.random:
        params = envs.RandomGameParams(
            n_states=args.states, n_u=args.nu, n_a=args.na,
            hazard_fraction=args.hazard_frac, seed=args.seed)
        spec = _generate(envs.random_game, params)
    else:
        try:
            w_text, h_text = args.grid.lower().split("x")
            width, height = int(w_text), int(h_text)
        except ValueError as exc:
            raise SchemaError(f"bad grid size {args.grid!r}, expected WxH") from exc
        hazards = tuple(_parse_cell("--hazard", h) for h in (args.hazard or ()))
        goal = _parse_cell("--goal", args.goal) if args.goal else (width - 1, height - 1)
        params = envs.GridworldParams(
            width=width, height=height, hazard_cells=hazards,
            goal_cell=goal, adversary_strength=args.adv)
        spec = _generate(envs.gridworld, params)
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
    _require_positive(args, "m", "n", "tol", "max_iter")
    spec, grid_shape = _resolve_game(args)
    cfg = dpi.DpiConfig(m=args.m, n=args.n, tol=args.tol)
    result = dpi.run(spec, cfg, max_iter=args.max_iter)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the tables first, so the policy's Python lists are not alive under
    # the writers' peak
    write_q_csv(out / "qh.csv", result.q_h)
    write_q_csv(out / "q.csv", result.q)
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
    write_pgm(out / "set.pgm", result.invariant_set, grid_shape)
    write_trace_csv(out / "trace.csv", result.trace, spec.n_states)
    if result.trace.budget_exhausted:
        print(f"warning: outer loop ran all {cfg.m} steps without converging",
              file=sys.stderr)
    print(f"solved: {result.invariant_set.member_count()}/{spec.n_states} "
          f"member states, {len(result.trace.steps)} outer steps, "
          f"constrained residual {result.trace.final_constrained_residual:.3g}",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    _require_positive(args, "pairs", "tol")
    spec, _ = _resolve_game(args)
    q_h = read_q_csv(args.qh, spec.shape) if args.qh else None
    results = verify.run_all(spec, pairs=args.pairs, seed=args.seed,
                             q_h=q_h, tol=args.tol)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 4


def _parse_gammas(text: str) -> list:
    try:
        gammas = [float(g) for g in text.split(",")]
        if all(0.0 < g < 1.0 for g in gammas):
            return gammas
    except ValueError:
        pass
    raise SchemaError(f"bad --gammas {text!r}, expected comma-separated "
                      "discounts strictly inside (0, 1)")


def cmd_sweep(args) -> int:
    gammas = _parse_gammas(args.gammas)
    spec, _ = _resolve_game(args)
    tables = [(gamma_h, safety.solve(dataclasses.replace(spec, gamma_h=gamma_h)))
              for gamma_h in gammas]
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("x,u,a,gamma_h,value\n")
        for gamma_h, q in tables:
            _write_cells(fh, q, f"{gamma_h:.12g},")
    return 0


def _check_config_value(action: argparse.Action, value) -> None:
    """Reject a --config value that does not have its option's JSON type
    (JSON true and false load as bools, which Python counts as ints)."""
    kind = type(value)
    if action.nargs == 0:  # a switch such as --random
        what, ok = "true or false", kind is bool
    elif isinstance(action, argparse._AppendAction):  # --hazard
        what, ok = "a list of strings", kind is list and all(
            type(item) is str for item in value)
    elif action.type is int:
        what, ok = "an integer", kind is int
    elif action.type is float:
        what, ok = "a number", kind in (int, float)
    else:
        what, ok = "a string", kind is str
    if not ok:
        raise SchemaError(f"config key {action.dest} must be {what}")


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
    p_solve.add_argument("--m", type=int, default=dpi.DpiConfig.m,
                         help="outer iterations")
    p_solve.add_argument("--n", type=int, default=dpi.DpiConfig.n,
                         help="safety rounds per outer iteration")
    p_solve.add_argument("--tol", type=float, default=dpi.DpiConfig.tol,
                         help="exit bound on the task table's residual "
                              "(safety solves are exact)")
    p_solve.add_argument("--max-iter", type=int, default=safety.DEFAULT_MAX_ITER,
                         help="improvement budget per player of the "
                              "safety policy iteration and sweep budget per "
                              "task evaluation")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run oracle cross-checks")
    _add_source_args(p_verify)
    p_verify.add_argument("--pairs", type=int, default=200,
                          help="random pairs per operator property")
    p_verify.add_argument("--qh", metavar="PATH", default=None,
                          help="judge the invariant set of a stored safety "
                               "table in sign certification; the other "
                               "checks still judge the dual iteration's")
    p_verify.add_argument("--tol", type=float, default=dpi.DpiConfig.tol,
                          help="exit bound of the dual iteration, as in "
                               "solve, and the oracle's iteration stop")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="export exact max-min safety tables "
                                           "per discount")
    _add_source_args(p_sweep)
    p_sweep.add_argument("--gammas", default="0.9,0.99,0.999",
                         help="comma-separated safety discounts")
    p_sweep.add_argument("--out", default=None, help="CSV output file")
    p_sweep.set_defaults(func=cmd_sweep)

    if config:
        subparsers = (p_solve, p_verify, p_sweep)
        known = [{action.dest for action in p._actions} for p in subparsers]
        unknown = sorted(set(config).difference(*known))
        if unknown:
            raise SchemaError(f"unknown config keys: {', '.join(unknown)}")
        for p, dests in zip(subparsers, known):
            for action in p._actions:
                if action.dest in config:
                    _check_config_value(action, config[action.dest])
            p.set_defaults(**{k: v for k, v in config.items() if k in dests})
    return parser


# Built once per process: a parser's reference cycles wait for a GC pass.
_default_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _default_parser().parse_args(argv)
        # argparse's own reading of --config (the last one, abbreviations
        # too) picks the file; its entries seed a second parse's defaults.
        if args.config:
            config = _read_json(args.config)
            if not isinstance(config, dict):
                raise SchemaError("config file must hold a JSON object")
            args = build_parser(config).parse_args(argv)
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except InfeasibleGame as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MaxIterExceeded as exc:
        print(f"iteration budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
