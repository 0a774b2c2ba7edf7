"""Independent brute-force oracles and small-graph streams.

Everything here is deliberately naive and shares nothing with the
parameter module beyond the core graph type and its result record:
alpha and omega come from subset enumeration in combinations order,
each subset tested with one mask AND per member against the bitmask
rows; chi from walking the assignments of k colors, for growing k, in
product order, vertex 0 first, cutting a prefix as soon as it gives two
ends of an edge the same color (no vertex order, no symmetry breaking,
no lower bound).  Berge recognition comes from enumerating odd vertex
subsets and testing for induced chordless cycles.  Perfection by
definition computes chi and omega of every vertex subset with a bitmask
dynamic program: chi of a subset is one plus the least chi left after
removing a stable set through its lowest vertex, so it checks chi ==
omega directly rather than through Lovasz's alpha * omega bound that
invariants.is_perfect uses.  Fixed size caps keep the enumerations at
desk scale.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .core import Graph, complement, induced_subgraph
from .errors import TooLargeError
from .invariants import GraphParameters

ORACLE_MAX_N = 20
BERGE_MAX_N = 12
# The chi table tries the stable sets of every subset, 3^n steps on the
# edgeless graph: 1.2 s at n=14 on a 2-vCPU VM, about 4x per added vertex.
DEFINITION_MAX_N = 14
EXHAUSTIVE_MAX_N = 6
# Search nodes (calls of one vertex's color choice, summed over all k) the
# chi walk may visit.  All graphs with n <= 6 need at most 422, the
# benchmark's n = 7 oracle-agreement streams at most 1,435, 100,000
# random G(7, 1/2) graphs at most 1,829 and the joined double pentagon
# 5,066.  A node costs about 1.8 us on a 2-vCPU VM, so a walk stops
# within about 0.4 s; dense graphs well inside the vertex cap need
# millions of nodes (seeded G(14, 0.9): 1.5 million, 2.8 s).
COLORING_MAX_NODES = 200_000
DEFAULT_SEED = 42


def _first_proper_coloring(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Least k with a proper k-coloring, and the first one in
    product(range(k), repeat=n) order.

    Tries k = 0, 1, ... in turn.  Each try walks the product order depth
    first, vertex 0 first and colors in increasing order, and cuts a
    prefix once it gives two ends of an edge the same color: every
    assignment below such a prefix is improper, so the first assignment
    the walk completes is the first proper one of the product.  Raises
    TooLargeError once the walk has visited COLORING_MAX_NODES nodes.
    """
    n = len(adj)
    earlier = [[j for j in range(i) if adj[i] >> j & 1] for i in range(n)]
    assign = [0] * n
    budget = COLORING_MAX_NODES

    def place(i: int, k: int) -> bool:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise TooLargeError(f"coloring search capped at {COLORING_MAX_NODES} nodes")
        if i == n:
            return True
        taken = {assign[j] for j in earlier[i]}
        for c in range(k):
            if c not in taken:
                assign[i] = c
                if place(i + 1, k):
                    return True
        return False

    k = 0
    while not place(0, k):
        k += 1
    return k, assign


def oracle_parameters(G: Graph) -> GraphParameters:
    """alpha, omega by subset enumeration; chi by trying the colorings with
    k colors for k = 0, 1, ... in increasing order.

    Subsets come in combinations order, smallest first, and the first
    stable set and the first clique of the largest size are the
    witnesses.  Both properties are hereditary, so a size is searched
    only while the size below it had one, and the scan stops at the
    first size that has neither.  The chi witness is the first proper
    assignment in product order.  Raises TooLargeError past the vertex
    cap, and once the chi walk passes COLORING_MAX_NODES search nodes.
    """
    n = G.n
    if n > ORACLE_MAX_N:
        raise TooLargeError(f"subset enumeration capped at {ORACLE_MAX_N} vertices")
    nodes, adj = G.nodes, G.bit_adjacency
    closed = [a | 1 << i for i, a in enumerate(adj)]
    best_stable: tuple[int, ...] = ()
    best_clique: tuple[int, ...] = ()
    for r in range(1, n + 1):
        want_stable = len(best_stable) == r - 1
        want_clique = len(best_clique) == r - 1
        if not (want_stable or want_clique):
            break
        for S in combinations(range(n), r):
            mask = 0
            for i in S:
                mask |= 1 << i
            if want_stable and all(not adj[i] & mask for i in S):
                best_stable, want_stable = S, False
            if want_clique and all(closed[i] & mask == mask for i in S):
                best_clique, want_clique = S, False
            if not (want_stable or want_clique):
                break
    chi, assign = _first_proper_coloring(adj)
    return GraphParameters(
        len(best_stable),
        len(best_clique),
        chi,
        tuple(nodes[i] for i in best_clique),
        tuple(nodes[i] for i in best_stable),
        {nodes[i]: assign[i] for i in range(n)},
    )


def _cycle_order(G: Graph, S: tuple[int, ...]) -> tuple[int, ...] | None:
    """Walk of the chordless cycle induced by S, or None.

    S induces a cycle exactly when every member has two neighbors
    inside S and one closed walk visits all of S.
    """
    nbrs: dict[int, list[int]] = {}
    for v in S:
        ns = [u for u in S if u != v and G.adjacent(u, v)]
        if len(ns) != 2:
            return None
        nbrs[v] = ns
    start = S[0]
    order = [start]
    prev, cur = start, min(nbrs[start])
    while cur != start:
        order.append(cur)
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
    return tuple(order) if len(order) == len(S) else None


def _find_odd_induced_cycle(G: Graph) -> tuple[int, ...] | None:
    # Subsets come in combinations order; one with a member that does not
    # have exactly two neighbours inside it (a popcount of its masked
    # row) cannot be a cycle, so _cycle_order walks only the others.
    nodes, adj = G.nodes, G.bit_adjacency
    for length in range(5, G.n + 1, 2):
        for S in combinations(range(G.n), length):
            mask = 0
            for i in S:
                mask |= 1 << i
            if all((adj[i] & mask).bit_count() == 2 for i in S):
                cycle = _cycle_order(G, tuple(nodes[i] for i in S))
                if cycle is not None:
                    return cycle
    return None


def find_odd_hole_or_antihole(G: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Shortest odd induced cycle of length >= 5 in G, else in complement(G).

    Returns ("hole", cycle) or ("antihole", cycle); the antihole cycle
    is listed in complement order.  None when the graph is Berge.
    """
    if G.n > BERGE_MAX_N:
        raise TooLargeError(f"hole search capped at {BERGE_MAX_N} vertices")
    hole = _find_odd_induced_cycle(G)
    if hole is not None:
        return "hole", hole
    antihole = _find_odd_induced_cycle(complement(G))
    if antihole is not None:
        return "antihole", antihole
    return None


def is_berge(G: Graph) -> bool:
    """True when neither G nor its complement has an odd hole."""
    return find_odd_hole_or_antihole(G) is None


def _independent_sets_by_min(adj: Sequence[int], n: int) -> list[list[int]]:
    """All nonempty independent-set masks, grouped by lowest vertex index."""
    by_min: list[list[int]] = [[] for _ in range(n)]

    def rec(mask: int, low: int, cand: int) -> None:
        while cand:
            v = cand & -cand
            i = v.bit_length() - 1
            cand ^= v
            s = mask | v
            by_min[low if mask else i].append(s)
            rec(s, low if mask else i, cand & ~adj[i])

    rec(0, 0, (1 << n) - 1)
    return by_min


def _subset_tables(adj: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """omega and chi of the induced subgraph for every vertex-subset mask."""
    size = 1 << n
    om = [0] * size
    for m in range(1, size):
        v = m & -m
        i = v.bit_length() - 1
        a = om[m ^ v]
        b = 1 + om[m & adj[i]]
        om[m] = a if a > b else b
    by_min = _independent_sets_by_min(adj, n)
    ch = [0] * size
    for m in range(1, size):
        v = m & -m
        i = v.bit_length() - 1
        floor = om[m] - 1
        best = n
        for s in by_min[i]:
            if s & m == s:
                c = ch[m & ~s]
                if c < best:
                    best = c
                    if best == floor:
                        break
        ch[m] = best + 1
    return om, ch


def is_perfect_by_definition(G: Graph) -> bool:
    """True when chi equals omega on every induced subgraph, both tabled per subset.

    Raises TooLargeError past DEFINITION_MAX_N vertices.
    """
    if G.n > DEFINITION_MAX_N:
        raise TooLargeError(f"perfection by definition capped at {DEFINITION_MAX_N} vertices")
    om, ch = _subset_tables(G.bit_adjacency, G.n)
    return om == ch


def labeled_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs of {1..n} in lexicographic order; bit i of an edge
    bitmask refers to entry i."""
    return tuple(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=16)
def _pair_positions(n: int) -> tuple[tuple[int, int], ...]:
    """Row positions (i, j) of the pair that bit k of an n-vertex edge bitmask refers to.

    Built on first use for each n; a stream asks for one n throughout.
    """
    return tuple(combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph on {1..n} whose edges are the pairs of labeled_pairs(n) at mask's set bits.

    Bits past the last pair are ignored.  Each set bit k becomes bits i
    and j of the rows, (i, j) being the positions of pair k.
    """
    pairs = _pair_positions(n)
    mask &= (1 << len(pairs)) - 1
    rows = [0] * n
    while mask:
        low = mask & -mask
        i, j = pairs[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        mask ^= low
    return Graph(tuple(range(1, n + 1)), tuple(rows))


def _check_stream_bounds(n: int, count: int) -> None:
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if count < 0:
        raise ValueError(f"graph count must be non-negative, got {count}")


def check_exhaustive_cap(n: int) -> None:
    """Raise TooLargeError when n is past EXHAUSTIVE_MAX_N."""
    if n > EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_N} vertices")


def enumerate_graphs(
    n: int,
    mode: str = "exhaustive",
    *,
    seed: int = DEFAULT_SEED,
    count: int = 1000,
) -> Iterator[Graph]:
    """Deterministic stream of labeled graphs on {1..n}.

    exhaustive: all 2^(n(n-1)/2) graphs in edge-bitmask order, once
    check_exhaustive_cap allows n.  random: `count` draws of G(n, 1/2),
    each edge bitmask taken from the Mersenne Twister
    (random.Random(seed).getrandbits), reproducible bit for bit.  Raises
    ValueError for a negative n or count.
    """
    _check_stream_bounds(n, count)
    bits = n * (n - 1) // 2
    if mode == "exhaustive":
        check_exhaustive_cap(n)
        for mask in range(1 << bits):
            yield graph_from_mask(n, mask)
    elif mode == "random":
        rng = random.Random(seed)
        for _ in range(count):
            yield graph_from_mask(n, rng.getrandbits(bits) if bits else 0)
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'random', got {mode!r}")


def stream_size(n: int, mode: str, count: int = 1000) -> int:
    """Number of graphs enumerate_graphs will yield.

    Raises ValueError for a negative n or count, and TooLargeError for an
    exhaustive stream past check_exhaustive_cap, before it counts anything.
    """
    _check_stream_bounds(n, count)
    if mode == "exhaustive":
        check_exhaustive_cap(n)
        return 1 << (n * (n - 1) // 2)
    if mode == "random":
        return count
    raise ValueError(f"mode must be 'exhaustive' or 'random', got {mode!r}")


def confirms_imperfection(G: Graph, S: tuple[int, ...]) -> bool:
    """Oracle check that the subgraph induced by S has chi above omega."""
    H = induced_subgraph(G, S)
    p = oracle_parameters(H)
    return p.chi > p.omega
