"""Time the layers of pgl on fixed, seeded inputs.

Each case of the registry below names a call into pgl's public API, a
graph family, a vertex count n and a graph count.  The script runs every
case from one or more pgl source trees, so that a parent checkout and a
change can be measured side by side.  Each (case, tree) pair runs in
CHILDREN = 3 fresh interpreters.  A child reads its input on stdin
(graphs of a few hundred vertices do not fit in one argv entry), builds
the graphs, and then calls the case until it has spent the timing budget
or made 200 calls (at least once).  The script records one row per case
and tree:

- case, family, n, graphs: the case (family and graphs are None for a
  sweep or a stream, which build no graphs here);
- result: bool, None, int and int tuples verbatim, a `SweepReport` as
  [graphs_checked, number of counterexamples], anything else as the first
  16 hex digits of the sha256 of its repr, so that trees which disagree
  show it; a pair whose children fail, or disagree, reads "error: " and
  the last line of a failing child's stderr (or "the children disagree"),
  and its timing fields are null, so the run goes on;
- median_ms: the median of the children's median times of one call;
- child_ms: the three children's median times, in the order they ran,
  so that a pair whose fresh processes read at two levels shows it;
- repeats: the calls made by the children in all;
- peak_rss_kib: the median of the children's `ru_maxrss` (KiB on Linux)
  above its level before the first call, as of the end of that call.

The trees take turns child by child, so slow drift of the machine's
speed hits them alike: with two trees, each child runs them in the order
opposite to the child before, within a pair and across pairs.  Graphs
are drawn here from `random.Random` streams seeded by family and n, so
every tree sees the same edges.

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
- BENCH_pipeline.json: --case wpgt_certificate
- BENCH_sweep_once.json: --case sweep-expansion --case sweep-iso
  --case sweep-pipeline --case verify_certificate
- BENCH_definition.json: --case is_perfect_by_definition --case sweep-wpgt
- BENCH_oracle_indicators.json: --case oracle_parameters
  --case sweep-oracle-agreement
- BENCH_expansion_host.json: --case sweep-expansion
- BENCH_one_check.json: --case sweep-separation --case sweep-expansion
  --case sweep-iso --case sweep-wpgt --case emit-graph6
- BENCH_oracle_chi.json: --case oracle_parameters
  --case is_perfect_by_definition --case sweep-oracle-agreement
  --case sweep-wpgt
- BENCH_color_classes.json: --case graph_parameters --case find_isomorphism
  --case clique_number --case analyze
- BENCH_walk.json: --case is_perfect --case imperfection_witness --case analyze
- BENCH_graph6.json: --case parse-graph6
- BENCH_berge_replication.json: --case find_odd_hole_or_antihole
  --case sweep-replication --case sweep-berge
- BENCH_certify_io.json: --case certificate-json --case cover_to_coloring
  --case parse-dimacs --case parse-edgelist --case verify_certificate
  --case wpgt_certificate
- BENCH_walk_step.json: --case is_perfect --case imperfection_witness
  --case analyze --case sweep-replication --case oracle_parameters
  --case is_perfect_by_definition
- BENCH_cli_dispatch.json: --case run_command
- BENCH_size_table.json: --case is_perfect --case imperfection_witness
  --case analyze --case sweep-replication
- BENCH_small_steps.json: --case is_perfect --case imperfection_witness
  --case analyze --case sweep-berge --case sweep-iso
  --case sweep-replication --case run_command
- BENCH_oracle_tables.json: --case oracle_parameters
  --case find_odd_hole_or_antihole --case is_perfect_by_definition
  --case sweep-wpgt --case sweep-berge --case sweep-oracle-agreement
  --case sweep-separation
- BENCH_graph_values.json: --case enumerate_graphs --case build_separated_graph
  --case sweep-separation --case sweep-iso

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
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


def edgeless(n: int, rng: random.Random) -> Edges:
    return []


def complete(n: int, rng: random.Random) -> Edges:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def disjoint_triangles(n: int, rng: random.Random) -> Edges:
    """Triangles on consecutive vertices, the last part smaller when 3 does not divide n."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 == v // 3]


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
    "edgeless": edgeless,
    "complete": complete,
    "disjoint-triangles": disjoint_triangles,
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
# alpha, omega, chi and the clique and stable witnesses of each graph.
_ORACLE = (
    "lambda: [(p.alpha, p.omega, p.chi, p.max_clique_witness, p.max_stable_witness)"
    " for p in map(pgl.oracle_parameters, graphs)]"
)
_ISO = "partial(pgl.find_isomorphism, G, pgl.relabel_graph(G, {v: n - 1 - v for v in G.nodes}))"
# The certificate is built before the timing starts; only the check is timed.
_VERIFY = "partial(pgl.verify_certificate, G, pgl.wpgt_certificate(G))"
# What `pgl analyze` computes on a parsed graph: the line it writes.
_ANALYZE = 'partial(__import__("pgl.cli", fromlist=["cli"])._analyze_line, G)'
_PARSE = "partial(pgl.parse_graph, pgl.emit_graph(G, {!r}))"
# What `pgl certify` writes, and the self-check that reads the clique cover
# as a coloring of the complement; the certificate is built before the
# timing starts.
_CERTIFICATE_JSON = 'partial(__import__("pgl.cli", fromlist=["cli"])._certificate_json, pgl.wpgt_certificate(G))'
_COVER_COLORING = "partial(pgl.cover_to_coloring, pgl.complement(G), pgl.wpgt_certificate(G).clique_cover)"
_CERTIFIED = (("bipartite", 20), ("split", 20), ("interval", 20), ("matching", 16))
# `pgl analyze`, and `pgl certify` then `pgl verify`, as one process runs
# them: run_command on a graph6 file of G (see run_commands in _CHILD).
_RUN_ANALYZE = "run_commands([['analyze', '--in', 'g.g6']], G)"
_RUN_CERTIFY = (
    "run_commands([['certify', '--in', 'g.g6', '--out', 'cert.json'], ['verify', '--in', 'g.g6', '--cert', 'cert.json']], G)"
)
# Perfection by definition is not exported by pgl; it lives in pgl.oracles.
_DEFINITION = "__import__('pgl.oracles', fromlist=['oracles']).is_perfect_by_definition"

CASES = [
    *(on_graph(name, *graph) for graph in _PERFECTION for name in ("is_perfect", "imperfection_witness")),
    Case("oracle_parameters", _ORACLE, "gnp", 7, 88),
    Case("oracle_parameters", _ORACLE, "gnp", 9, 20),
    Case("oracle_parameters", _ORACLE, "joined-double-pentagon", 10),
    Case("oracle_parameters", _ORACLE, "antihole", 7),
    Case("oracle_parameters", _ORACLE, "antihole", 9),
    *(
        Case("oracle_parameters", _ORACLE, family, n)
        for family, n in (
            ("sparse-bipartite", 16), ("sparse-bipartite", 20), ("gnp", 16), ("gnp", 19), ("gnp", 20),
            ("split", 20), ("interval", 16), ("interval", 20), ("disjoint-triangles", 20), ("matching", 20),
        )
    ),
    *(
        Case(f"sweep-{prop}", f"partial(pgl.sweep, {prop!r}, n)", None, n, None)
        for prop, n in (
            ("oracle-agreement", 6), ("expansion", 4), ("expansion", 5), ("iso", 5), ("duality", 6),
            ("separation", 5), ("pipeline", 5), ("wpgt", 6), ("replication", 5), ("replication", 6),
            ("berge", 5), ("berge", 6), ("separation", 6), ("iso", 6),
        )
    ),
    # About as many G(7, 1/2) as one pass of perfbench's sweep workload decodes.
    Case("enumerate_graphs", "lambda: list(pgl.enumerate_graphs(n, 'random', count=3600))", None, 7, None),
    Case("build_separated_graph", "lambda: [pgl.build_separated_graph(H) for H in graphs]", "gnp", 7, 88),
    *(
        Case("find_odd_hole_or_antihole", "lambda: [pgl.find_odd_hole_or_antihole(H) for H in graphs]", "gnp", n, 88)
        for n in (7, 8)
    ),
    *(
        on_graph("find_odd_hole_or_antihole", family, n)
        for family, n in (
            ("sparse-bipartite", 12), ("sparse-bipartite", 16), ("sparse-bipartite", 20), ("disjoint-triangles", 20),
        )
    ),
    *(on_graph("max_stable_sets", "matching", n) for n in (24, 28, 32)),
    *(on_graph("max_stable_sets", "sparse-bipartite", n) for n in (40, 60)),
    *(on_graph("clique_number", "gnp", n) for n in (40, 44, 48)),
    # The antiholes and the joined double pentagon have chi > omega, so the
    # coloring search fails at omega colors before it succeeds; this
    # family's planted holes close a triangle, so chi = omega = 3 there.
    *(
        on_graph("graph_parameters", family, n)
        for family, n in (
            ("planted-hole", 14), ("planted-hole", 18), ("planted-hole", 20), ("antihole", 9), ("antihole", 11),
            ("joined-double-pentagon", 10),
        )
    ),
    Case("graph_parameters", "lambda: [pgl.graph_parameters(H) for H in graphs]", "gnp", 7, 88),
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
    *(Case("parse-edgelist", _PARSE.format("edgelist"), "gnp", n) for n in (200, 400)),
    Case("find_isomorphism", _ISO, "gnp", 100),
    Case("find_isomorphism", _ISO, "matching", 40),
    *(
        Case("verify_certificate", _VERIFY, family, n)
        for family, n in (("sparse-bipartite", 40), ("sparse-bipartite", 60), ("matching", 16))
    ),
    *(Case("analyze", _ANALYZE, family, n) for n in (12, 15, 20) for family in ("bipartite", "split", "interval")),
    *(Case("analyze", _ANALYZE, "planted-hole", n) for n in (14, 18, 20)),
    Case("is_perfect_by_definition", f"(lambda d: lambda: [d(H) for H in graphs])({_DEFINITION})", "gnp", 7, 100),
    Case("is_perfect_by_definition", f"(lambda d: lambda: [d(H) for H in graphs])({_DEFINITION})", "gnp", 8, 88),
    *(
        Case("is_perfect_by_definition", f"partial({_DEFINITION}, G)", family, n)
        for family in ("edgeless", "complete", "disjoint-triangles")
        for n in (12, 14, 16, 20)
    ),
    *(
        on_graph("wpgt_certificate", family, n)
        for family, n in (
            ("bipartite", 20), ("split", 20), ("interval", 20), ("matching", 16), ("sparse-bipartite", 40)
        )
    ),
    *(Case("certificate-json", _CERTIFICATE_JSON, family, n) for family, n in _CERTIFIED),
    *(Case("cover_to_coloring", _COVER_COLORING, family, n) for family, n in _CERTIFIED),
    *(Case("run_command", _RUN_ANALYZE, family, n) for family, n in (("gnp", 7), ("bipartite", 12), ("bipartite", 20))),
    *(Case("run_command", _RUN_CERTIFY, family, 16) for family in ("bipartite", "matching")),
]


def edge_lists(case: Case) -> list[Edges]:
    """The case's graphs, drawn from one stream seeded by its family and n."""
    if case.family is None:
        return []
    rng = random.Random(f"{case.family}-{case.n}")
    return [FAMILIES[case.family](case.n, rng) for _ in range(case.graphs)]


_CHILD = r"""
import atexit, contextlib, hashlib, io, json, os, resource, statistics, sys, tempfile, time
from functools import partial
src, call, n, edge_lists, min_s = json.load(sys.stdin)
sys.path.insert(0, src)
import pgl
# A call that runs each argv through pgl.cli.run_command and returns its
# exit status and stdout.  The call runs in a fresh directory, removed when
# the child exits, that holds g.g6, G in graph6, written here before the
# timing starts.
def run_commands(argvs, G):
    from pgl.cli import run_command
    where = tempfile.TemporaryDirectory()
    atexit.register(where.cleanup)
    os.chdir(where.name)
    with open("g.g6", "w") as fh:
        fh.write(pgl.emit_graph(G, "graph6").payload + "\n")
    def run():
        done = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                done.append((run_command(argv), out.getvalue()))
        return done
    return run
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
    done = subprocess.run([sys.executable, "-c", _CHILD], input=feed, capture_output=True, text=True)
    if done.returncode:
        last = done.stderr.strip().rpartition("\n")[2]
        row = {"result": f"error: {last}", "median_ms": None, "repeats": None, "peak_rss_kib": None}
    else:
        row = json.loads(done.stdout)
    return {"case": case.name, "family": case.family, "n": case.n, "graphs": case.graphs, **row}


# The fresh children that time each (case, tree) pair.
CHILDREN = 3


def merged(rows: list[dict]) -> dict:
    """The row of a (case, tree) pair, from the rows of its children."""
    failed = [row for row in rows if row["median_ms"] is None]
    if failed or any(row["result"] != rows[0]["result"] for row in rows):
        result = failed[0]["result"] if failed else "error: the children disagree"
        return {**rows[0], "result": result, "median_ms": None, "child_ms": None, "repeats": None, "peak_rss_kib": None}
    return {
        **rows[0],
        "median_ms": statistics.median(row["median_ms"] for row in rows),
        "child_ms": [row["median_ms"] for row in rows],
        "repeats": sum(row["repeats"] for row in rows),
        "peak_rss_kib": statistics.median(row["peak_rss_kib"] for row in rows),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, help="NAME=PATH of a directory holding pgl")
    ap.add_argument("--out", help="write the runs to this JSON file, keyed by NAME")
    ap.add_argument("--min-seconds", type=float, default=0.3, help="timing budget per child")
    names = sorted({c.name for c in CASES})
    ap.add_argument("--case", action="append", choices=names, help="run only the cases of this name")
    args = ap.parse_args(argv)
    trees = [spec.partition("=")[::2] if "=" in spec else (spec, spec) for spec in args.src]
    runs = {name: [] for name, _ in trees}
    cases = [c for c in CASES if args.case is None or c.name in args.case]
    turn = 0
    for case in cases:
        children = {name: [] for name, _ in trees}
        for _ in range(CHILDREN):
            for name, path in trees[turn:] + trees[:turn]:
                children[name].append(run_case(os.path.abspath(path), case, args.min_seconds))
            turn = (turn + 1) % len(trees)
        for name, _ in trees:
            row = merged(children[name])
            runs[name].append(row)
            timing = "" if row["median_ms"] is None else (
                f" {row['median_ms']:12.4f} ms  x{row['repeats']:<3} peak +{row['peak_rss_kib']} KiB "
            )
            print(
                f"{name:>8} {case.name:>22} {case.family or '-':>22} n={case.n:<3}{timing} result {row['result']}",
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
