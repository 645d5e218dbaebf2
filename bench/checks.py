"""Output checks for benchmark ops, built on the oracles.

Each check takes an op's exit code and outputs and returns ``None`` when
they are correct, or a one-line reason.  None of them calls the engines'
backup or solve code: invariant sets are rebuilt from the exported ``qh.csv``
and judged by ``oracle.viability_kernel`` and a forward-invariance scan, and
sweep tables are certified by one max-min backup written here.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from safegames import oracle
from safegames.game import GameSpec

VERIFY_LINES = 6
# Q tables are exported with 12 significant digits, so each parsed entry is
# within this share of its magnitude from the value the solver held.
CSV_REL_ROUNDING = 5e-12


def _csv_rows(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _q_table(rows: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Fill a table from ``x,u,a,value`` rows; every cell must appear once."""
    q = np.empty(spec.shape)
    flat = np.ravel_multi_index(rows[:, :3].astype(np.int64).T, spec.shape)
    if flat.size != q.size or np.unique(flat).size != q.size:
        raise ValueError("table does not hold every (x,u,a) cell exactly once")
    q.flat[flat] = rows[:, 3]
    return q


def invariance_exits(spec: GameSpec, member: np.ndarray,
                     admissible: np.ndarray) -> List[Tuple[int, int, int, int]]:
    """Admissible transitions (x, u, a, successor) leaving the member set.

    Every member state is a root of ``oracle.find_invariance_violations``, so
    its exhaustive search reports exactly these exits; this scan is linear in
    the table size where that search is quadratic in the member count (18 s
    on a 32x32 grid).
    """
    allowed = member[:, None, None] & admissible[:, :, None]
    cells = np.argwhere(allowed & ~member[spec.transition])
    return [(int(x), int(u), int(a), int(spec.transition[x, u, a]))
            for x, u, a in cells]


def check_solve(spec: GameSpec, rc: int, out_dir: Path) -> Optional[str]:
    kernel = oracle.viability_kernel(spec)
    if rc == 2:
        return None if not kernel.any() else "exit 2 with a nonempty kernel"
    if rc != 0:
        return f"exit {rc}"
    q_h = _q_table(_csv_rows((out_dir / "qh.csv").read_text(encoding="utf-8")),
                   spec)
    with open(out_dir / "policy.json", encoding="utf-8") as fh:
        policy = json.load(fh)
    admissible = q_h.min(axis=2) >= 0.0
    member = admissible.any(axis=1)
    if not np.array_equal(member, np.asarray(policy["member"], dtype=bool)):
        return "policy.json members differ from qh.csv"
    exits = invariance_exits(spec, member, admissible)
    if exits:
        return f"{len(exits)} admissible transitions leave the invariant set"
    if (member & ~kernel).any():
        return f"{int((member & ~kernel).sum())} members outside the kernel"
    support = np.asarray(policy["task_policy"]) > 0.0
    if (support & ~admissible)[member].any():
        return "task policy plays an inadmissible row at a member state"
    return None


def check_verify(rc: int, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    if rc != 0:
        return f"exit {rc}"
    if len(lines) != VERIFY_LINES or not all(
            line.startswith("PASS ") for line in lines):
        return "not every verify line reads PASS"
    return None


def check_sweep(spec: GameSpec, gammas: Sequence[float], tol: float, rc: int,
                stdout: str) -> Optional[str]:
    """Every (x,u,a,gamma_h) row is present and one max-min backup of each
    table moves it by at most the solve tolerance.

    The exported table is the last iterate, which moved by at most ``tol``,
    so one more backup moves it by at most ``gamma_h * tol``; the CSV
    rounding adds at most ``(1 + gamma_h)`` times the rounding error.
    """
    if rc != 0:
        return f"exit {rc}"
    rows = _csv_rows(stdout)
    if rows.shape[0] != len(gammas) * int(np.prod(spec.shape)):
        return "unexpected rows in the sweep table"
    h = spec.constraint[:, None, None]
    for gamma_h in gammas:
        try:
            q = _q_table(rows[rows[:, 3] == gamma_h][:, [0, 1, 2, 4]], spec)
        except ValueError as exc:
            return f"gamma_h {gamma_h}: {exc}"
        cont = q.min(axis=2).max(axis=1)
        backed_up = (1.0 - gamma_h) * h + gamma_h * np.minimum(h, cont[spec.transition])
        moved = float(np.abs(backed_up - q).max())
        allowed = tol + 2.0 * CSV_REL_ROUNDING * float(np.abs(q).max())
        if moved > allowed:
            return f"gamma_h {gamma_h}: one backup moves the table by {moved:.3e}"
    return None
