"""Count games whose artifacts differ between two run records.

    python3 bench/compare.py .bench_out/BENCH_<tag>.json other/BENCH_<tag>.json

Games are matched by their command line, so two records of the same
workload and seed compare game for game, for instance the parent commit's
and a change's.  Prints the drift count; exits 1 when it is not zero.
"""

import json
import sys


def digests(path):
    """Command line -> set of artifact digests seen for it in one record."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    seen = {}
    for op in record["ops"]:
        argv = tuple(record["games"][op["game"]])
        seen.setdefault(argv, set()).add(op["sha256"])
    return seen


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (digests(p) for p in paths)
    shared = sorted(set(a) & set(b))
    drift = sum(a[g] != b[g] for g in shared)
    print(f"digest drift: {drift} of {len(shared)} shared games differ")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
