"""Time the perfection layer of pgl on fixed graphs.

Times `is_perfect` and `imperfection_witness` from one or more pgl source
trees, so that a parent checkout and a change can be measured side by side
with the same script.  Each (graph, function, tree) case runs in a fresh
interpreter: it builds the graph, calls the function once and records
`ru_maxrss` (KiB on Linux) above the level it had before the call, then
repeats the call and records the median time.  The trees take turns case
by case, so slow drift of the machine's speed hits them alike.  Graphs are
drawn here from seeded `random.Random` streams, so every tree sees the
same edges.

    python3 tools/bench_perfection.py --src before=../parent/src --src after=src \
        --out BENCH_perfection.json

Each --src is NAME=PATH or PATH (then named by the path).  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys

FUNCTIONS = ("is_perfect", "imperfection_witness")
SIZES = (7, 8, 12, 15, 20)
HOLE_SIZES = (14, 18, 20)


def bipartite(n: int, rng: random.Random) -> list[tuple[int, int]]:
    half = n // 2
    return [(u, v) for u in range(half) for v in range(half, n) if rng.random() < 0.5]


def split(n: int, rng: random.Random) -> list[tuple[int, int]]:
    k = n // 2
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return clique + [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]


def interval(n: int, rng: random.Random) -> list[tuple[int, int]]:
    spans = []
    for _ in range(n):
        a = rng.uniform(0, n)
        spans.append((a, a + rng.uniform(0, 4)))
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
    ]


def gnp(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def planted_hole(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A bipartite graph with an induced 5-cycle on five random vertices."""
    hole = rng.sample(range(n), 5)
    inside = set(hole)
    edges = [(u, v) for u, v in bipartite(n, rng) if not (u in inside and v in inside)]
    ring = [tuple(sorted((hole[i], hole[(i + 1) % 5]))) for i in range(5)]
    return edges + ring


def expansion_host(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Each vertex of a path replaced by a triangle: the all-3 expansion."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if v // 3 - u // 3 <= 1]


FAMILIES = {
    "bipartite": bipartite,
    "split": split,
    "interval": interval,
    "random": gnp,
    "planted-hole": planted_hole,
    "expansion-host": expansion_host,
}


def cases() -> list[tuple[str, int]]:
    out = [(family, n) for n in SIZES for family in ("bipartite", "split", "interval")]
    out += [("random", 7), ("random", 20), ("expansion-host", 12)]
    out += [("planted-hole", n) for n in HOLE_SIZES]
    return out


def edges_of(family: str, n: int) -> list[tuple[int, int]]:
    return FAMILIES[family](n, random.Random(f"{family}-{n}"))


_CHILD = r"""
import json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import pgl
n, edges, name, min_s = json.loads(sys.argv[2])
G = pgl.make_graph(range(n), [tuple(e) for e in edges])
fn = getattr(pgl, name)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = fn(G)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
times = []
spent = 0.0
while len(times) < 5 or (spent < min_s and len(times) < 200):
    t0 = time.perf_counter()
    fn(G)
    times.append(time.perf_counter() - t0)
    spent += times[-1]
print(json.dumps({
    "result": result if isinstance(result, bool) else (None if result is None else list(result)),
    "median_ms": round(statistics.median(times) * 1e3, 4),
    "repeats": len(times),
    "peak_rss_kib": peak - before,
}))
"""


def run_case(src: str, family: str, n: int, function: str, min_s: float) -> dict:
    arg = json.dumps([n, edges_of(family, n), function, min_s])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, src, arg], capture_output=True, text=True, check=True
    )
    row = json.loads(done.stdout)
    return {"family": family, "n": n, "function": function, **row}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, help="NAME=PATH of a directory holding pgl")
    ap.add_argument("--out", help="write the runs to this JSON file, keyed by NAME")
    ap.add_argument("--min-seconds", type=float, default=0.3, help="timing budget per case")
    args = ap.parse_args(argv)
    trees = [spec.partition("=")[::2] if "=" in spec else (spec, spec) for spec in args.src]
    runs = {name: [] for name, _ in trees}
    for k, (family, n) in enumerate(cases()):
        for function in FUNCTIONS:
            turn = k % len(trees)
            for name, path in trees[turn:] + trees[:turn]:
                row = run_case(os.path.abspath(path), family, n, function, args.min_seconds)
                runs[name].append(row)
                print(
                    f"{name:>12} {family:>14} n={n:<2} {function:<21} {row['median_ms']:10.4f} ms"
                    f"  x{row['repeats']:<3} peak +{row['peak_rss_kib']} KiB",
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
