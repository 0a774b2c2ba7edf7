"""Time the independent parameter oracle and exhaustive sweeps of pgl.

Times `oracle_parameters` on batches of G(7, 1/2) and G(9, 1/2) graphs,
on the joined double pentagon (n = 10, chi = 6) and on the odd antiholes
of 7 and 9 vertices, and times the exhaustive sweeps `sweep(prop, n)` of
the `sweep-<prop>` cases: oracle-agreement at n = 6, expansion at n = 4,
iso at n = 5 and duality at n = 6 (whose cost is mostly the stream of
32,768 graphs).  All run from one or more pgl source trees, so that a
parent checkout and a change can be measured side by side with the same
script.  Each (case, tree) pair runs in a fresh interpreter, which
builds the graphs, then calls the function until it has spent the timing
budget (at least once) and records the median time of one call.  It also records a digest of the results, so
that trees which disagree show it.  The trees take turns case by case, so
slow drift of the machine's speed hits them alike.  Graphs are drawn here
from seeded `random.Random` streams, so every tree sees the same edges.

    python3 tools/bench_oracles.py --src before=../parent/src --src after=src \
        --out BENCH_oracles.json
    python3 tools/bench_oracles.py --src before=../parent/src --src after=src \
        --case sweep-expansion --case sweep-iso --case sweep-duality \
        --out BENCH_sweep_layers.json

Each --src is NAME=PATH or PATH (then named by the path); --case, which
may be repeated, picks cases by name (default: all).  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys


def gnp(n: int, count: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(f"gnp-{n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [[e for e in pairs if rng.random() < 0.5] for _ in range(count)]


def joined_double_pentagon() -> list[tuple[int, int]]:
    """Two five-cycles with every cross edge present."""
    ring = [(i, (i + 1) % 5) for i in range(5)]
    return ring + [(u + 5, v + 5) for u, v in ring] + [(u, v) for u in range(5) for v in range(5, 10)]


def antihole(n: int) -> list[tuple[int, int]]:
    """Complement of the n-cycle."""
    return [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]


# name, n, edge lists; None in place of the edge lists marks a sweep-<prop>
# case, which runs the exhaustive sweep of prop at n.
CASES = (
    ("gnp", 7, gnp(7, 88)),
    ("gnp", 9, gnp(9, 20)),
    ("joined-double-pentagon", 10, [joined_double_pentagon()]),
    ("antihole", 7, [antihole(7)]),
    ("antihole", 9, [antihole(9)]),
    ("sweep-oracle-agreement", 6, None),
    ("sweep-expansion", 4, None),
    ("sweep-iso", 5, None),
    ("sweep-duality", 6, None),
)


_CHILD = r"""
import hashlib, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import pgl
case, n, batches, min_s = json.loads(sys.argv[2])
if batches is None:
    work = lambda: pgl.sweep(case.removeprefix("sweep-"), n)
    digest = lambda report: [report.graphs_checked, len(report.counterexamples)]
else:
    graphs = [pgl.make_graph(range(n), [tuple(e) for e in edges]) for edges in batches]
    work = lambda: [pgl.oracle_parameters(G) for G in graphs]
    digest = lambda out: hashlib.sha256(repr(out).encode()).hexdigest()[:16]
times = []
spent = 0.0
while not times or (spent < min_s and len(times) < 200):
    t0 = time.perf_counter()
    result = work()
    times.append(time.perf_counter() - t0)
    spent += times[-1]
print(json.dumps({
    "result": digest(result),
    "median_ms": round(statistics.median(times) * 1e3, 4),
    "repeats": len(times),
}))
"""


def run_case(src: str, case: str, n: int, batches: list | None, min_s: float) -> dict:
    arg = json.dumps([case, n, batches, min_s])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, src, arg], capture_output=True, text=True, check=True
    )
    row = json.loads(done.stdout)
    return {"case": case, "n": n, "graphs": None if batches is None else len(batches), **row}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, help="NAME=PATH of a directory holding pgl")
    ap.add_argument("--out", help="write the runs to this JSON file, keyed by NAME")
    ap.add_argument("--min-seconds", type=float, default=0.3, help="timing budget per case")
    ap.add_argument(
        "--case", action="append", choices=sorted({c[0] for c in CASES}), help="run only this case"
    )
    args = ap.parse_args(argv)
    trees = [spec.partition("=")[::2] if "=" in spec else (spec, spec) for spec in args.src]
    runs = {name: [] for name, _ in trees}
    cases = [c for c in CASES if args.case is None or c[0] in args.case]
    for k, (case, n, batches) in enumerate(cases):
        turn = k % len(trees)
        for name, path in trees[turn:] + trees[:turn]:
            row = run_case(os.path.abspath(path), case, n, batches, args.min_seconds)
            runs[name].append(row)
            print(
                f"{name:>12} {case:>22} n={n:<2} {row['median_ms']:12.4f} ms"
                f"  x{row['repeats']:<3} result {row['result']}",
                flush=True,
            )
    machine = {"python": platform.python_version(), "machine": f"{platform.machine()}, {os.cpu_count()} CPUs"}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({name: {**machine, "cases": rows} for name, rows in runs.items()}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
