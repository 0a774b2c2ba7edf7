"""Seeded corpus of the pgl benchmark: graph families, file encoders, ops.

Everything here is standard library only and shares no code with pgl,
so the files the program reads and the facts the checks rely on (which
graphs are perfect by construction) are independent of the code under
test.  The same seed always gives byte-identical files.

Each workload has a fixed composition (family, vertex count, file
format).  The seed draws the random edges and labelings, except for the
graphs taken from a fixed stream (see analyze_graphs), so the cost of a
pass moves little from one seed to the next.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations

WORKLOADS = ("analyze", "certify", "sweep")

SWEEP_N = 7
# Graphs per op for each property.  The last, half-size op of each property
# draws its stream from --seed; the others use fixed streams.  The sizes make
# every fixed-stream op cost about 60 ms, so the median and the 90th latency
# percentile both fall inside that one cluster of ops, whose cost does not
# move with the draw (a 100-graph oracle-agreement op costs 130-230 ms
# depending on its stream), and a run has over 100 ops.
SWEEP_SPLIT = {
    "wpgt": (270, 270, 135),
    "berge": (270, 270, 135),
    "duality": (350, 350, 175),
    "separation": (220, 220, 110),
    "oracle-agreement": (35, 35, 18),
    "replication": (50, 50, 25),
    "pipeline": (110, 110, 55),
    "iso": (110, 110, 55),
}
# Exhaustive expansion at n=5 ran for more than 100 s; n=4 is 64 graphs.
EXPANSION_N = 4

_SUFFIX = {"graph6": ".g6", "dimacs": ".col", "edgelist": ".el"}
_FORMATS = ("graph6", "dimacs", "edgelist")


@dataclass(frozen=True)
class GraphSpec:
    """One corpus graph on vertices 0..n-1, with its known perfection."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    perfect: bool
    fmt: str = "graph6"

    @property
    def offset(self) -> int:
        """Id of vertex 0 once pgl parses the file (graph6 is 0-based)."""
        return 0 if self.fmt == "graph6" else 1


@dataclass(frozen=True)
class Op:
    """One benchmark operation: one or two CLI invocations and what to expect.

    kind "analyze" runs one command; "certify" runs certify and then,
    when certify exits 0, verify on the emitted certificate; "sweep"
    runs one sweep expecting `expect_graphs` graphs and no counterexample.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    graph: GraphSpec | None = None
    graph_path: str = ""
    cert_path: str = ""
    expect_graphs: int = 0


# ---------------------------------------------------------------------------
# Families.  Every generator returns sorted (low, high) pairs over 0..n-1.


def _canon(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in edges}))


def _shuffled(n: int, edges, rng: random.Random) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return _canon((perm[u], perm[v]) for u, v in edges)


def complement_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    present = set(edges)
    return tuple(p for p in combinations(range(n), 2) if p not in present)


def _half_of(pairs, rng: random.Random) -> list[tuple[int, int]]:
    """A random half of the candidate pairs.

    A fixed edge count, rather than a coin per pair, keeps the cost of
    the exponential searches close from one seed to the next.
    """
    pairs = list(pairs)
    return rng.sample(pairs, len(pairs) // 2)


def bipartite(n: int, rng: random.Random):
    half = n // 2
    return _shuffled(n, _half_of(((i, j) for i in range(half) for j in range(half, n)), rng), rng)


def cobipartite(n: int, rng: random.Random):
    return complement_edges(n, bipartite(n, rng))


def split(n: int, rng: random.Random):
    """A clique on half the vertices, a stable set on the rest, random edges between."""
    k = n // 2
    edges = list(combinations(range(k), 2))
    edges += _half_of(((i, j) for i in range(k) for j in range(k, n)), rng)
    return _shuffled(n, edges, rng)


def interval(n: int, rng: random.Random):
    """Intersection graph of n random intervals on a line of length 2n."""
    span = 2 * n
    ivs = []
    for _ in range(n):
        a = rng.randrange(span)
        ivs.append((a, a + rng.randint(1, span // 4)))
    return _canon(
        (i, j)
        for i, j in combinations(range(n), 2)
        if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]
    )


def matching(k: int):
    return tuple((2 * i, 2 * i + 1) for i in range(k))


def cycle(n: int):
    return _canon((i, (i + 1) % n) for i in range(n))


def joined_double_pentagon():
    """Two five-cycles with every cross edge present (chi=6, omega=4)."""
    inner = [(i, (i + 1) % 5) for i in range(5)]
    outer = [(u + 5, v + 5) for u, v in inner]
    cross = [(u, v + 5) for u in range(5) for v in range(5)]
    return _canon(inner + outer + cross)


def planted_hole(n: int, k: int, rng: random.Random):
    """Half of all other pairs as edges, plus an induced odd cycle on k random vertices."""
    hole = rng.sample(range(n), k)
    members = set(hole)
    edges = [(hole[i], hole[(i + 1) % k]) for i in range(k)]
    edges += _half_of(((u, v) for u, v in combinations(range(n), 2) if not (u in members and v in members)), rng)
    return _canon(edges)


# ---------------------------------------------------------------------------
# Workload compositions.


def _small_graphs(rng: random.Random, fixed: random.Random) -> list[GraphSpec]:
    """Graphs with n <= 12, where is_perfect uses its subset tables.

    Half of the random ones come from the fixed stream: the median op is
    one of them, and one small graph's cost varies by up to 30% between draws.
    """
    specs: list[tuple[str, int, tuple, bool]] = []
    for stream in (fixed, rng):
        for n in (6, 8, 9, 10, 11, 12):
            specs.append((f"bipartite-n{n}-{len(specs)}", n, bipartite(n, stream), True))
            specs.append((f"cobipartite-n{n}-{len(specs)}", n, cobipartite(n, stream), True))
            specs.append((f"split-n{n}-{len(specs)}", n, split(n, stream), True))
            specs.append((f"interval-n{n}-{len(specs)}", n, interval(n, stream), True))
    for n in (8, 9, 10, 11, 12):
        specs.append((f"planted-c5-n{n}", n, planted_hole(n, 5, rng), False))
    for k in (5, 7, 9, 11):
        specs.append((f"hole-c{k}", k, cycle(k), False))
    for k in (7, 9, 11):
        specs.append((f"antihole-c{k}", k, complement_edges(k, cycle(k)), False))
    specs.append(("joined-double-pentagon", 10, joined_double_pentagon(), False))
    return [
        GraphSpec(name, n, edges, perfect, _FORMATS[i % 3])
        for i, (name, n, edges, perfect) in enumerate(specs)
    ]


# The graphs that carry most of a pass's time, or sit at its median or 90th
# latency percentile, are drawn from a fixed stream (the same for every
# seed), so that the metrics measure the program rather than the draw: the
# cost of one random graph of these families varies by 10-30% between draws.


def analyze_graphs(seed: int) -> list[GraphSpec]:
    rng = random.Random(f"analyze-{seed}")
    fixed = random.Random("analyze")
    out = [
        # Past _SUBSET_TABLE_MAX_N = 12: is_perfect checks every subset.
        GraphSpec("bipartite-n15", 15, bipartite(15, fixed), True),
        GraphSpec("cobipartite-n13", 13, cobipartite(13, fixed), True),
        GraphSpec("matching-k7", 14, matching(7), True),
    ]
    # Imperfect n >= 14: the per-subset fallback stops at the first odd hole.
    # The 90th latency percentile falls among the four n=18 graphs.
    for n, k in ((20, 7), (20, 7), (18, 5), (18, 7), (18, 5), (18, 7), (16, 5), (16, 7), (14, 5), (14, 7)):
        edges = planted_hole(n, k, fixed if n == 18 else rng)
        out.append(GraphSpec(f"planted-c{k}-n{n}-{len(out)}", n, edges, False))
    return out + _small_graphs(rng, fixed)


def certify_graphs(seed: int) -> list[GraphSpec]:
    rng = random.Random(f"certify-{seed}")
    fixed = random.Random("certify")
    out = [GraphSpec(f"matching-k{k}", 2 * k, matching(k), True) for k in (5, 6, 7)]
    specs: list[tuple[str, int, tuple, bool]] = []
    # Many maximum stable sets.  Interval graphs stay at n <= 12: their
    # certify time is heavy-tailed in n (2 ms to 2.9 s across seeds at n=20).
    for n in (8, 9, 10, 11, 12) * 3:
        specs.append((f"interval-n{n}-{len(specs)}", n, interval(n, rng), True))
    # The 90th latency percentile falls among the six n=20 graphs.
    for n in (12, 14, 16, 18, 20, 20, 20, 20, 20, 20):
        specs.append((f"cobipartite-n{n}-{len(specs)}", n, cobipartite(n, fixed if n == 20 else rng), True))
    # Few maximum stable sets.
    for n in (12, 16, 20) * 2:
        specs.append((f"bipartite-n{n}-{len(specs)}", n, bipartite(n, rng), True))
        specs.append((f"split-n{n}-{len(specs)}", n, split(n, rng), True))
    # Imperfect: certify may still succeed, since theta = alpha can hold.
    for k in (5, 7, 9, 11):
        specs.append((f"hole-c{k}", k, cycle(k), False))
    for k in (7, 9, 11):
        specs.append((f"antihole-c{k}", k, complement_edges(k, cycle(k)), False))
    specs.append(("joined-double-pentagon", 10, joined_double_pentagon(), False))
    for n, k in ((10, 5), (12, 7), (14, 5), (16, 7)):
        specs.append((f"planted-c{k}-n{n}", n, planted_hole(n, k, rng), False))
    out += [
        GraphSpec(name, n, edges, perfect, _FORMATS[i % 3])
        for i, (name, n, edges, perfect) in enumerate(specs)
    ]
    return out


def sweep_seeds(seed: int, chunks: int) -> list[int]:
    """Stream seeds of a property's ops: fixed for all but the last."""
    fixed = random.Random("sweep")
    seeds = [fixed.randrange(1 << 30) for _ in range(chunks - 1)]
    return seeds + [random.Random(f"sweep-{seed}").randrange(1 << 30)]


# ---------------------------------------------------------------------------
# File encoders (graph6, DIMACS, headed edge list).


def graph6(n: int, edges) -> str:
    if n > 62:
        raise ValueError("short graph6 header only")
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body + "\n"


def encode(spec: GraphSpec) -> str:
    if spec.fmt == "graph6":
        return graph6(spec.n, spec.edges)
    if spec.fmt == "dimacs":
        lines = [f"p edge {spec.n} {len(spec.edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in spec.edges]
    else:
        lines = [f"n {spec.n}"] + [f"{u + 1} {v + 1}" for u, v in spec.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Building the corpus of one workload into a directory.


def build(workload: str, seed: int, directory: str) -> list[Op]:
    """Write the workload's input files under directory and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    os.makedirs(directory, exist_ok=True)
    if workload == "sweep":
        ops = []
        for prop, counts in SWEEP_SPLIT.items():
            for chunk, (count, stream_seed) in enumerate(zip(counts, sweep_seeds(seed, len(counts)))):
                argv = (
                    "sweep", "--prop", prop, "--n", str(SWEEP_N), "--mode", "random",
                    "--seed", str(stream_seed), "--count", str(count), "--jobs", "1",
                )
                ops.append(Op(f"{prop}-{chunk}", "sweep", argv, expect_graphs=count))
        argv = ("sweep", "--prop", "expansion", "--n", str(EXPANSION_N), "--mode", "exhaustive", "--jobs", "1")
        ops.append(Op("expansion", "sweep", argv, expect_graphs=1 << (EXPANSION_N * (EXPANSION_N - 1) // 2)))
        return ops
    specs = analyze_graphs(seed) if workload == "analyze" else certify_graphs(seed)
    ops = []
    for i, spec in enumerate(specs):
        path = os.path.join(directory, f"{i:03d}-{spec.name}{_SUFFIX[spec.fmt]}")
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(encode(spec))
        if workload == "analyze":
            ops.append(Op(spec.name, "analyze", ("analyze", "--in", path), spec, path))
        else:
            cert = os.path.join(directory, f"{i:03d}-{spec.name}.cert.json")
            argv = ("certify", "--in", path, "--out", cert)
            ops.append(Op(spec.name, "certify", argv, spec, path, cert))
    return ops
