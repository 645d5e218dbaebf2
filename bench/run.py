"""Benchmark of the safegames command line: solve, verify and sweep.

    python3 bench/run.py --workload solve-random --seed 0 --seconds 18 --trace 0

Each workload is a closed loop of ops from one client on one thread; an op
is one in-process ``safegames.cli.main([...])`` call on a game generated
from ``--seed``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced pass.  The last stdout line is one JSON
object; a run record with every op's artifact digest is written under
``.bench_out/``.  See bench/README.md.
"""

import os

# Set before numpy loads its BLAS, for this process and the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
TOL = 1e-10          # the CLI's default solve tolerance
SWEEP_GAMMAS = (0.99, 0.999)
TAIL_BEYOND = 10
END_TO_END_UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s",
                    "peak_alloc_mb": "MB"}


def random_op(command, states, nu, na, hazard_frac=None, extra=(),
              safe_only=False):
    """Op on a seeded random game; the game seed is drawn from ``rng``.

    With ``safe_only``, seeds are drawn until the game's exact viability
    kernel is nonempty.
    """
    draws = 1000 if safe_only else 1

    def build(rng, envs, oracle):
        params = dict(n_states=states, n_u=nu, n_a=na)
        argv = [command, "--random", "--states", str(states), "--nu", str(nu),
                "--na", str(na)]
        if hazard_frac is not None:
            params["hazard_fraction"] = hazard_frac
            argv += ["--hazard-frac", str(hazard_frac)]
        for _ in range(draws):
            seed = int(rng.integers(2**31 - 1))
            spec = envs.random_game(envs.RandomGameParams(seed=seed, **params))
            if not safe_only or oracle.viability_kernel(spec).any():
                return argv + list(extra) + ["--seed", str(seed)], spec
        raise RuntimeError(f"no game with a safe state in {draws} draws")
    return build


def grid_op(size, n_hazards):
    """Solve on a size x size push grid with hazards drawn from ``rng``;
    the goal stays in the far corner and is never a hazard."""
    def build(rng, envs, oracle):
        goal = size * size - 1
        cells = np.sort(rng.choice(goal, n_hazards, replace=False))
        hazards = tuple((int(c % size), int(c // size)) for c in cells)
        spec = envs.gridworld(envs.GridworldParams(
            width=size, height=size, hazard_cells=hazards,
            goal_cell=(size - 1, size - 1), adversary_strength=1))
        argv = ["solve", "--grid", f"{size}x{size}", "--adv", "1"]
        for x, y in hazards:
            argv += ["--hazard", f"{x},{y}"]
        return argv, spec
    return build


_SWEEP = ("--gammas", ",".join(str(g) for g in SWEEP_GAMMAS))
# name: (full-size op, tiny op for warm-up and smoke runs, games per run)
WORKLOADS = {
    "solve-random": (random_op("solve", 300, 6, 3, 0.1),
                     random_op("solve", 30, 6, 3, 0.1), 64),
    "solve-grid": (grid_op(32, 30), grid_op(8, 3), 12),
    # Over half of these games have no safe state, which leaves the
    # induced-game and invariance checks nothing to do; verify-small measures
    # games on which every check runs.
    "verify-small": (random_op("verify", 8, 2, 2, safe_only=True),
                     random_op("verify", 4, 2, 2, safe_only=True), 64),
    "sweep-highgamma": (random_op("sweep", 300, 6, 3, 0.1, _SWEEP),
                        random_op("sweep", 30, 6, 3, 0.1, _SWEEP), 64),
}


class Games:
    """The run's games as ``(argv, spec)`` pairs, built on first use.

    Game ``k`` draws everything from ``default_rng([seed, k])``.  The spec is
    for the output checks only: the CLI regenerates the game from ``argv``
    inside the op.  Games are built outside every timed region.
    """

    def __init__(self, build, seed, pool):
        from safegames import envs, oracle
        self._build, self._modules = build, (envs, oracle)
        self.seed, self.pool = seed, pool
        self._built = {}

    def __len__(self):
        return self.pool

    def __getitem__(self, k):
        if k not in self._built:
            rng = np.random.default_rng([self.seed, k])
            self._built[k] = self._build(rng, *self._modules)
        return self._built[k]

    def argvs(self):
        """Command lines of games ``0 .. n-1``; a run uses them in order."""
        return [self[k][0] for k in range(len(self._built))]


def set_up(workload, seed, tiny, scratch):
    """Import the package and run one warm-up op on a small game.

    Returns the ``cli`` module and the run's (lazily built) games.
    """
    sys.path.insert(0, str(SRC))
    from safegames import cli

    full, small, pool = WORKLOADS[workload]
    warm_argv, _ = Games(small, seed, pool + 1)[pool]
    run_op(cli, with_out(warm_argv, scratch))
    return cli, Games(small if tiny else full, seed, 4 if tiny else pool)


def with_out(argv, out_dir):
    return argv + ["--out", str(out_dir)] if argv[0] == "solve" else argv


def run_op(cli, argv):
    """One timed ``cli.main`` call with captured streams.

    Returns (exit code, seconds, stdout, stderr); an exception escaping
    ``main`` counts as exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    elapsed = 0.0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            finally:
                elapsed = time.perf_counter() - start
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:   # a crashing op is a failed op, not a failed run
        rc = -1
        err.write(traceback.format_exc())
    return rc, elapsed, out.getvalue(), err.getvalue()


def artifact_digest(out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_op(checks, argv, spec, rc, stdout, out_dir):
    try:
        if argv[0] == "solve":
            return checks.check_solve(spec, rc, out_dir)
        if argv[0] == "verify":
            return checks.check_verify(rc, stdout)
        return checks.check_sweep(spec, SWEEP_GAMMAS, TOL, rc, stdout)
    except Exception as exc:   # a malformed artifact fails the op
        return f"check raised {exc!r}"


class PeakAlloc:
    """tracemalloc peak over the ``with`` block, in bytes."""

    peak = 0

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc_info):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return False


def execute(cli, checks, games, k, out_dir, around=None):
    """Run game ``k`` once inside ``around`` and check its outputs."""
    argv, spec = games[k]
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    with around if around is not None else contextlib.nullcontext():
        rc, seconds, stdout, stderr = run_op(cli, with_out(argv, out_dir))
    reason = check_op(checks, argv, spec, rc, stdout, out_dir)
    files = list(out_dir.iterdir()) if out_dir.is_dir() else []
    return {"game": k, "seconds": seconds, "rc": rc, "ok": reason is None,
            "reason": reason, "stderr": None if reason is None else stderr[-2000:],
            "sha256": artifact_digest(out_dir, stdout),
            "bytes_written": sum(p.stat().st_size for p in files)}


def tail_stat(times):
    """Highest nearest-rank percentile of op time with ``TAIL_BEYOND`` ops
    beyond it, as ``(seconds, percentile)``.

    Returns None when that percentile would not lie above the median, that
    is for runs of fewer than ``2 * TAIL_BEYOND + 2`` ops.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if 2 * k <= n - 1:
        return None
    return ordered[k], 100.0 * (k + 1) / n


def probe_setup(args):
    """Wall time of a fresh process that only sets up: interpreter start,
    imports, game generation and the warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "overhead")):
        return "ratio"
    for suffix, unit in (("ns_per_cell_update", "ns"), ("us_per_call", "us"),
                         ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment_record():
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    src = hashlib.sha256()
    for path in sorted(p for p in (SRC / "safegames").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0"
                   + path.read_bytes())
    return {"commit": git_commit(), "source_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def git_commit():
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="op time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small games, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_pass(cli, checks, games, seconds, op_dir):
    """The timed closed loop, then one op in its own allocation pass.

    Returns the ops, the metrics other than ``setup_s``, the tail statistic
    and whether the allocation op was correct and reproduced the first op's
    artifacts.
    """
    ops, busy = [], 0.0
    while busy < seconds:
        ops.append(execute(cli, checks, games, len(ops) % len(games), op_dir))
        busy += ops[-1]["seconds"]
    peak = PeakAlloc()
    alloc_op = execute(cli, checks, games, 0, op_dir, peak)
    times = [op["seconds"] for op in ops]
    tail = tail_stat(times)
    if tail is None:
        print(f"op_tail_s undefined: {len(ops)} ops, a tail above the median "
              f"with {TAIL_BEYOND} ops beyond it needs {2 * TAIL_BEYOND + 2}")
    else:
        print(f"op_tail_s {tail[0]:.6g} s: p{tail[1]:.1f} of {len(ops)} ops, "
              f"{TAIL_BEYOND} ops beyond it")
    metrics = {"op_p50_s": statistics.median(times),
               "ops_per_s": len(ops) / busy, "peak_alloc_mb": peak.peak / 1e6}
    alloc_ok = alloc_op["ok"] and alloc_op["sha256"] == ops[0]["sha256"]
    return ops, metrics, tail, alloc_ok


def traced_pass(tracer, cli, checks, games, seconds, op_dir, spans_path):
    """Untraced and traced ops in alternating order on the same games.

    A traced op whose artifacts differ from its untraced twin fails.
    """
    recorder = tracer.SpanRecorder()
    ops, busy, k = [], 0.0, 0
    while busy < seconds:
        pair = []
        for around in ((None, recorder) if k % 2 == 0 else (recorder, None)):
            op = execute(cli, checks, games, k % len(games), op_dir, around)
            pair.append(dict(op, traced=around is recorder))
        if pair[0]["sha256"] != pair[1]["sha256"]:
            traced = pair[0] if pair[0]["traced"] else pair[1]
            traced.update(ok=False, reason="traced artifacts differ")
        ops += pair
        busy += sum(op["seconds"] for op in pair)
        k += 1
    recorder.write(spans_path)
    traced = [op for op in ops if op["traced"]]
    traced_s = [op["seconds"] for op in traced]
    metrics = recorder.layer_metrics()
    metrics["cli.bytes_written"] = statistics.fmean(
        op["bytes_written"] for op in traced)
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(
        op["seconds"] for op in ops if not op["traced"]) - 1.0
    return ops, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "safegames" / "__init__.py").is_file():
        print(f"error: no safegames package under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = OUT / tag
    if args.setup_probe:
        set_up(args.workload, args.seed, args.tiny, work / "probe")
        return 0

    setup_samples = ([] if args.trace else
                     [probe_setup(args) for _ in range(SETUP_SAMPLES)])
    start = time.perf_counter()
    cli, games = set_up(args.workload, args.seed, args.tiny, work / "warmup")
    main_setup_s = time.perf_counter() - start
    # Both import the package, which set_up has just put on sys.path.
    import checks
    import tracer

    if args.trace:
        ops, metrics = traced_pass(tracer, cli, checks, games, args.seconds,
                                   work / "op", OUT / f"spans_{tag}.csv")
        tail, alloc_ok = None, True
    else:
        ops, metrics, tail, alloc_ok = timed_pass(cli, checks, games,
                                                  args.seconds, work / "op")
        metrics["setup_s"] = statistics.median(setup_samples)
    units = {name: END_TO_END_UNITS.get(name) or per_layer_unit(name)
             for name in metrics}

    failed = sum(not op["ok"] for op in ops)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              **environment_record(), "setup_samples_s": setup_samples,
              "main_setup_s": main_setup_s, "alloc_op_ok": alloc_ok,
              "op_tail": tail and {"seconds": tail[0], "percentile": tail[1],
                                   "beyond": TAIL_BEYOND},
              "games": games.argvs(), "ops": ops,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed, "
          f"fail_ratio {failed / len(ops):.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    result = {"correct": failed == 0 and alloc_ok, "attempted": len(ops),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
