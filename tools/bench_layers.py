"""Time the layers of pgl on fixed, seeded inputs.

Each case of the registry below names a call into pgl's public API, a
graph family, a vertex count n and a graph count.  The script runs every
case from one or more pgl source trees, so that a parent checkout and a
change can be measured side by side.  Each (case, tree) pair runs in a
fresh interpreter, which reads its input on stdin (graphs of a few
hundred vertices do not fit in one argv entry), builds the graphs, and
then calls the case until it has spent the timing budget or made 200
calls (at least once).  It records one row per case and tree:

- case, family, n, graphs: the case (graphs is None for a sweep);
- result: bool, None, int and int tuples verbatim, a `SweepReport` as
  [graphs_checked, number of counterexamples], anything else as the first
  16 hex digits of the sha256 of its repr, so that trees which disagree
  show it;
- median_ms, repeats: the median time of one call, over that many calls;
- peak_rss_kib: `ru_maxrss` (KiB on Linux) above its level before the
  first call, as of the end of that call.

The trees take turns case by case, so slow drift of the machine's speed
hits them alike.  Graphs are drawn here from `random.Random` streams
seeded by family and n, so every tree sees the same edges.

    python3 tools/bench_layers.py --src parent=../parent/src --src change=src \
        --out BENCH_layers.json

Each --src is NAME=PATH or PATH (then named by the path); --case, which
may be repeated, picks cases by name (default: all).  The committed
files come from these case sets:

- BENCH_perfection.json: --case is_perfect --case imperfection_witness
- BENCH_oracles.json: --case oracle_parameters --case sweep-oracle-agreement
- BENCH_sweep_layers.json: --case sweep-expansion --case sweep-iso
  --case sweep-duality
- BENCH_sweep_checks.json: --case sweep-separation --case sweep-pipeline
- BENCH_verify.json: --case verify_certificate
- BENCH_analyze.json: --case analyze --case parse-graph6 --case parse-dimacs
  --case parse-edgelist

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from typing import NamedTuple

Edges = list[tuple[int, int]]


def bipartite(n: int, rng: random.Random) -> Edges:
    half = n // 2
    return [(u, v) for u in range(half) for v in range(half, n) if rng.random() < 0.5]


def sparse_bipartite(n: int, rng: random.Random) -> Edges:
    """Halves joined by cross edges of probability 6/n: few, large maximum stable sets."""
    half = n // 2
    return [(u, v) for u in range(half) for v in range(half, n) if rng.random() < 6 / n]


def split(n: int, rng: random.Random) -> Edges:
    k = n // 2
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return clique + [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]


def interval(n: int, rng: random.Random) -> Edges:
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


def gnp(n: int, rng: random.Random) -> Edges:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def planted_hole(n: int, rng: random.Random) -> Edges:
    """A bipartite graph with an induced 5-cycle on five random vertices."""
    hole = rng.sample(range(n), 5)
    inside = set(hole)
    edges = [(u, v) for u, v in bipartite(n, rng) if not (u in inside and v in inside)]
    ring = [tuple(sorted((hole[i], hole[(i + 1) % 5]))) for i in range(5)]
    return edges + ring


def expansion_host(n: int, rng: random.Random) -> Edges:
    """Each vertex of a path replaced by a triangle: the all-3 expansion."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if v // 3 - u // 3 <= 1]


def matching(n: int, rng: random.Random) -> Edges:
    """n/2 disjoint edges: 2^(n/2) maximum stable sets."""
    return [(u, u + 1) for u in range(0, n - 1, 2)]


def antihole(n: int, rng: random.Random) -> Edges:
    """Complement of the n-cycle."""
    return [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]


def joined_double_pentagon(n: int, rng: random.Random) -> Edges:
    """Two five-cycles with every cross edge present (n = 10)."""
    ring = [(i, (i + 1) % 5) for i in range(5)]
    return ring + [(u + 5, v + 5) for u, v in ring] + [(u, v) for u in range(5) for v in range(5, 10)]


FAMILIES = {
    "bipartite": bipartite,
    "sparse-bipartite": sparse_bipartite,
    "split": split,
    "interval": interval,
    # "random" and "gnp" are both G(n, 1/2); the names seed the committed
    # BENCH_perfection.json and BENCH_oracles.json graphs respectively.
    "random": gnp,
    "gnp": gnp,
    "planted-hole": planted_hole,
    "expansion-host": expansion_host,
    "matching": matching,
    "antihole": antihole,
    "joined-double-pentagon": joined_double_pentagon,
}


class Case(NamedTuple):
    name: str
    call: str  # a zero-argument callable, evaluated in the child over pgl, partial, n, graphs, G = graphs[0]
    family: str | None  # None: no graphs are built
    n: int
    graphs: int | None = 1


def on_graph(name: str, family: str, n: int) -> Case:
    """The case that calls pgl.<name> on one graph of the family."""
    return Case(name, f"partial(pgl.{name}, G)", family, n)


_PERFECTION = [(family, n) for n in (7, 8, 12, 15, 20) for family in ("bipartite", "split", "interval")]
_PERFECTION += [("random", 7), ("random", 20), ("expansion-host", 12)]
_PERFECTION += [("planted-hole", n) for n in (14, 18, 20)]
_ORACLE = "lambda: [pgl.oracle_parameters(H) for H in graphs]"
_ISO = "partial(pgl.find_isomorphism, G, pgl.relabel_graph(G, {v: n - 1 - v for v in G.nodes}))"
# The certificate is built before the timing starts; only the check is timed.
_VERIFY = "partial(pgl.verify_certificate, G, pgl.wpgt_certificate(G))"
# What `pgl analyze` computes on a parsed graph: the line it writes.  A
# tree without cli._analyze_line builds the line the way its _cmd_analyze
# did, from is_perfect and then graph_parameters.
_ANALYZE = """(lambda cli: partial(cli._analyze_line, G) if hasattr(cli, "_analyze_line") else lambda: (
    lambda perfect, p: f"alpha={p.alpha} omega={p.omega} chi={p.chi}"
    f" nice={cli._bool_word(p.chi == p.omega)} perfect={cli._bool_word(perfect)}\\n"
)(pgl.is_perfect(G), pgl.graph_parameters(G)))(__import__("pgl.cli", fromlist=["cli"]))"""
_PARSE = "partial(pgl.parse_graph, pgl.emit_graph(G, {!r}))"

CASES = [
    *(on_graph(name, *graph) for graph in _PERFECTION for name in ("is_perfect", "imperfection_witness")),
    Case("oracle_parameters", _ORACLE, "gnp", 7, 88),
    Case("oracle_parameters", _ORACLE, "gnp", 9, 20),
    Case("oracle_parameters", _ORACLE, "joined-double-pentagon", 10),
    Case("oracle_parameters", _ORACLE, "antihole", 7),
    Case("oracle_parameters", _ORACLE, "antihole", 9),
    *(
        Case(f"sweep-{prop}", f"partial(pgl.sweep, {prop!r}, n)", None, n, None)
        for prop, n in (
            ("oracle-agreement", 6), ("expansion", 4), ("iso", 5), ("duality", 6), ("separation", 5), ("pipeline", 5)
        )
    ),
    *(on_graph("max_stable_sets", "matching", n) for n in (24, 28, 32)),
    *(on_graph("max_stable_sets", "sparse-bipartite", n) for n in (40, 60)),
    *(on_graph("clique_number", "gnp", n) for n in (40, 44, 48)),
    *(
        on_graph(name, family, n)
        for family, n in (("matching", 16), ("matching", 20), ("sparse-bipartite", 40))
        for name in ("build_separated_graph", "intersecting_clique")
    ),
    *(
        Case(f"{verb}-{fmt}", call.format(fmt), "gnp", n)
        for verb, call in (("emit", "partial(pgl.emit_graph, G, {!r})"), ("parse", _PARSE))
        for fmt in ("graph6", "dimacs")
        for n in (200, 400)
    ),
    *(Case(f"parse-{fmt}", _PARSE.format(fmt), "gnp", n) for fmt in ("graph6", "dimacs", "edgelist") for n in (12, 20)),
    Case("find_isomorphism", _ISO, "gnp", 100),
    Case("find_isomorphism", _ISO, "matching", 40),
    *(
        Case("verify_certificate", _VERIFY, family, n)
        for family, n in (("sparse-bipartite", 40), ("sparse-bipartite", 60), ("matching", 16))
    ),
    *(Case("analyze", _ANALYZE, family, n) for n in (12, 15, 20) for family in ("bipartite", "split", "interval")),
    *(Case("analyze", _ANALYZE, "planted-hole", n) for n in (14, 18, 20)),
]


def edge_lists(case: Case) -> list[Edges]:
    """The case's graphs, drawn from one stream seeded by its family and n."""
    if case.family is None:
        return []
    rng = random.Random(f"{case.family}-{case.n}")
    return [FAMILIES[case.family](case.n, rng) for _ in range(case.graphs)]


_CHILD = r"""
import hashlib, json, resource, statistics, sys, time
from functools import partial
src, call, n, edge_lists, min_s = json.load(sys.stdin)
sys.path.insert(0, src)
import pgl
graphs = [pgl.make_graph(range(n), [tuple(e) for e in edges]) for edges in edge_lists]
G = graphs[0] if graphs else None
work = eval(call)
times = []
def timed():
    t0 = time.perf_counter()
    out = work()
    times.append(time.perf_counter() - t0)
    return out
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = timed()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
while sum(times) < min_s and len(times) < 200:
    timed()
if isinstance(result, pgl.SweepReport):
    result = [result.graphs_checked, len(result.counterexamples)]
elif isinstance(result, tuple) and all(type(x) is int for x in result):
    result = list(result)
elif not (result is None or isinstance(result, int)):
    result = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
print(json.dumps({
    "result": result,
    "median_ms": round(statistics.median(times) * 1e3, 4),
    "repeats": len(times),
    "peak_rss_kib": peak - before,
}))
"""


def run_case(src: str, case: Case, min_s: float) -> dict:
    """Run one case from the pgl tree at src in a fresh interpreter; return its row."""
    feed = json.dumps([src, case.call, case.n, edge_lists(case), min_s])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], input=feed, stdout=subprocess.PIPE, text=True, check=True
    )
    row = json.loads(done.stdout)
    return {"case": case.name, "family": case.family, "n": case.n, "graphs": case.graphs, **row}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, help="NAME=PATH of a directory holding pgl")
    ap.add_argument("--out", help="write the runs to this JSON file, keyed by NAME")
    ap.add_argument("--min-seconds", type=float, default=0.3, help="timing budget per case")
    names = sorted({c.name for c in CASES})
    ap.add_argument("--case", action="append", choices=names, help="run only the cases of this name")
    args = ap.parse_args(argv)
    trees = [spec.partition("=")[::2] if "=" in spec else (spec, spec) for spec in args.src]
    runs = {name: [] for name, _ in trees}
    cases = [c for c in CASES if args.case is None or c.name in args.case]
    for k, case in enumerate(cases):
        turn = k % len(trees)
        for name, path in trees[turn:] + trees[:turn]:
            row = run_case(os.path.abspath(path), case, args.min_seconds)
            runs[name].append(row)
            print(
                f"{name:>8} {case.name:>22} {case.family or '-':>22} n={case.n:<3}"
                f" {row['median_ms']:12.4f} ms  x{row['repeats']:<3} peak +{row['peak_rss_kib']} KiB"
                f"  result {row['result']}",
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
