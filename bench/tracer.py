"""Span recorder for the traced benchmark pass.

The recorder wraps module attributes that the engines look up at call time,
so the package itself carries no instrumentation.  Each call becomes a span
``[name, start, end, parent, extra]``; spans stay in memory until the run
writes them out.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.

``perf`` imports ``fixed_point`` from ``safety`` by name, so the two modules'
bindings are wrapped separately; that is what splits safety-side sweeps from
task-side sweeps.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from safegames import cli, dpi, envs, matrix_game, oracle, perf, safety, verify
from safegames.errors import MaxIterExceeded

VERIFY_CHECKS = ("contraction", "monotonicity", "set_inclusion",
                 "sign_certification", "forward_invariance",
                 "induced_agreement")
ORACLE_METRICS = {
    "oracle.enumerate_optimal_safety": "oracle.enumerate_s",
    "oracle.viability_kernel": "oracle.kernel_s",
    "oracle.solve_induced_game": "oracle.induced_s",
    "oracle.find_invariance_violations": "oracle.invariance_s",
    "oracle.discounted_sweep": "oracle.sweep_s",
}
# Submatrix shapes (admissible rows x adversary actions) the four workloads
# send to the LP; anything else is counted under shape_other.
LP_SHAPES = (("1x2", "2x2") + tuple(f"{r}x3" for r in range(1, 7))
             + tuple(f"{r}x5" for r in range(1, 6)))


def _fixed_point_extra(args, kwargs, result, exc):
    q0 = args[1] if len(args) > 1 else kwargs["q0"]
    if result is not None:
        sweeps = result.iterations
    elif isinstance(exc, MaxIterExceeded):
        sweeps = exc.iterations
    else:
        sweeps = 0
    return sweeps, int(np.size(q0))


def _dpi_extra(args, kwargs, result, exc):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", dpi.DpiConfig())
    steps = len(result.trace.steps) if result is not None else 0
    return steps, cfg.m


def _enum_extra(args, kwargs, result, exc):
    spec = args[0]
    return (spec.n_u ** spec.n_states) * (spec.n_a ** spec.n_states)


class SpanRecorder:
    """Wraps the package's layer boundaries and records one span per call."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, extra]
        self.op_starts = []      # index of each traced op's first span
        self.lp_kinds = Counter()
        self.lp_shapes = Counter()
        self._lp_games = []      # this op's matrix_game.solve arguments
        self._stack = []
        self._saved = []
        lp_games = self._lp_games
        targets = [
            (cli, "main", None),
            (cli, "write_q_csv", None),
            (cli, "write_trace_csv", None),
            (cli, "write_pgm", None),
            (envs, "random_game", None),
            (envs, "gridworld", None),
            (dpi, "run", _dpi_extra),
            (safety, "fixed_point", _fixed_point_extra),
            (perf, "fixed_point", _fixed_point_extra),
            (perf, "constrained_backup", None),
            (matrix_game, "solve",
             lambda args, kwargs, result, exc: lp_games.append(args[0])),
            (oracle, "trajectory_min_constraint", None),
            (oracle, "enumerate_optimal_safety", _enum_extra),
            (oracle, "discounted_sweep", None),
            (oracle, "solve_induced_game", None),
            (oracle, "viability_kernel", None),
            (oracle, "find_invariance_violations", None),
        ] + [(verify, f"{c}_check", None) for c in VERIFY_CHECKS]
        self._targets = [(mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}",
                          extra) for mod, attr, extra in targets]

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if extra is not None:
                    span[4] = extra(args, kwargs, result, exc)

        return traced

    def __enter__(self):
        self.op_starts.append(len(self.spans))
        for mod, attr, name, extra in self._targets:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, extra))
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        self._stack.clear()
        # Classified after the op, so the work stays out of every span.
        classify_lps(self._lp_games, self.lp_kinds, self.lp_shapes)
        self._lp_games.clear()
        return False

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by direct children."""
        self_t = np.array([end - start for _, start, end, _, _ in self.spans])
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def write(self, path) -> None:
        """Write every span as CSV: op, id, parent, name, start, end, extra."""
        bounds = self.op_starts + [len(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start,end,extra\n")
            for op, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for sid in range(lo, hi):
                    name, start, end, parent, extra = self.spans[sid]
                    extra = "" if extra is None else str(extra).replace(",", ";")
                    fh.write(f"{op},{sid},{parent},{name},{start:.9f},"
                             f"{end:.9f},{extra}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics from every span recorded so far.

        Times and counts are means per traced op; shares and per-unit costs
        are ratios of totals.
        """
        n_ops = max(len(self.op_starts), 1)
        self_t = self.self_times()
        by_name = defaultdict(float)
        calls = Counter()
        extras = defaultdict(list)
        for (name, _, _, _, extra), t in zip(self.spans, self_t):
            by_name[name] += t
            calls[name] += 1
            if extra is not None:
                extras[name].append(extra)

        def layer_s(prefix):
            return sum(t for n, t in by_name.items() if n.startswith(prefix))

        per_op = {
            "cli.self_s": layer_s("cli."),
            "cli.write_s": layer_s("cli.write_"),
            "envs.gen_s": layer_s("envs."),
            "dpi.self_s": by_name["dpi.run"],
            "dpi.outer_steps": sum(s for s, _ in extras["dpi.run"]),
            "perf.constrained_backup_calls": calls["perf.constrained_backup"],
            "perf.constrained_backup_s": by_name["perf.constrained_backup"],
            "matrix_game.calls": calls["matrix_game.solve"],
            "matrix_game.s": by_name["matrix_game.solve"],
            "oracle.enum_pairs": sum(extras["oracle.enumerate_optimal_safety"]),
        }
        runs = extras["dpi.run"]
        ratios = {"dpi.full_budget_share": _ratio(
            sum(steps == budget for steps, budget in runs), len(runs))}
        for side in ("safety", "perf"):
            name = f"{side}.fixed_point"
            sweeps = sum(s for s, _ in extras[name])
            cells = sum(s * size for s, size in extras[name])
            per_op[f"{side}.solves"] = calls[name]
            per_op[f"{side}.sweeps"] = sweeps
            per_op[f"{side}.self_s"] = layer_s(f"{side}.")
            ratios[f"{side}.ns_per_cell_update"] = _ratio(by_name[name] * 1e9,
                                                          cells)
            if side == "safety":
                per_op["safety.cell_updates"] = cells
        n_lp = calls["matrix_game.solve"]
        ratios["matrix_game.us_per_call"] = _ratio(
            by_name["matrix_game.solve"] * 1e6, n_lp)
        for kind in ("trivial", "saddle", "two_col"):
            ratios[f"matrix_game.{kind}_share"] = _ratio(self.lp_kinds[kind], n_lp)
        shapes = Counter(self.lp_shapes)
        for shape in LP_SHAPES:
            per_op[f"matrix_game.shape_{shape}"] = shapes.pop(shape, 0)
        per_op["matrix_game.shape_other"] = sum(shapes.values())
        for name, metric in ORACLE_METRICS.items():
            per_op[metric] = by_name[name]
        for check in VERIFY_CHECKS:
            per_op[f"verify.{check}_s"] = by_name[f"verify.{check}_check"]

        metrics = {k: v / n_ops for k, v in per_op.items()}
        metrics.update(ratios)
        return metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def classify_lps(games, kinds: Counter, shapes: Counter) -> None:
    """Count LP arguments by kind and by admissible-submatrix shape.

    Kinds are exclusive and tested in order: ``trivial`` (one admissible row
    or one column, which ``matrix_game.solve`` already short-circuits),
    ``saddle`` (pure maxmin equals pure minmax), ``two_col`` (two columns
    without a pure saddle) and ``general``.
    """
    for game in games:
        sub = game.payoff[game.admissible_rows]
        rows, cols = sub.shape
        shapes[f"{rows}x{cols}"] += 1
        if rows == 1 or cols == 1:
            kinds["trivial"] += 1
        elif sub.min(axis=1).max() == sub.max(axis=0).min():
            kinds["saddle"] += 1
        elif cols == 2:
            kinds["two_col"] += 1
        else:
            kinds["general"] += 1
