"""Independent brute-force oracles and small-graph streams.

Everything here is deliberately naive and shares nothing with the
parameter module beyond the core graph type and its result record:
alpha and omega, with their witnesses, are the largest subsets that
the stable-set indicators of the graph and its complement mark, one
bit per vertex subset (bit m for the subset of the set bits of m);
chi from walking the assignments of k colors, for growing k, in
product order, vertex 0 first, cutting a prefix as soon as it gives two
ends of an edge the same color (no vertex order, no symmetry breaking,
no lower bound).  Berge recognition comes from enumerating odd vertex
subsets and testing for induced chordless cycles.  Perfection by
definition checks chi == omega on every vertex subset directly, rather
than through Lovasz's alpha * omega bound that invariants.is_perfect
uses: level k of chi marks the subsets with chi <= k, built from level
k - 1 by adding each maximal stable set, and level k of omega the
subsets holding no (k + 1)-clique.  The maximum stable sets the
separation sweep compares and both level bitsets come off the same
indicator.  Fixed size caps keep the enumerations at desk scale.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_
from typing import Iterator, Sequence

from .core import Graph, _complement_rows, complement, induced_subgraph
from .errors import TooLargeError
from .invariants import GraphParameters

ORACLE_MAX_N = 20
BERGE_MAX_N = 12
# Level bitsets hold 2^n bits (2 KiB at n=14).  At n=14 a call took at most
# 1.8 ms on disjoint cliques and 1.5 ms on seeded G(14, p), on a 2-vCPU VM.
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
    """alpha, omega and their witnesses off the stable-set indicators of G
    and its complement, each witness the largest marked set with the least
    sorted member tuple; chi and the first proper assignment in product
    order, trying k = 0, 1, ... colors.  Raises TooLargeError past the
    vertex cap, before any indicator is built, and once the chi walk
    passes COLORING_MAX_NODES search nodes.
    """
    n = G.n
    if n > ORACLE_MAX_N:
        raise TooLargeError(f"subset enumeration capped at {ORACLE_MAX_N} vertices")
    nodes, adj = G.nodes, G.bit_adjacency
    stable = tuple(nodes[i] for i in _first_largest(_stable_indicator(adj), n))
    clique = tuple(nodes[i] for i in _first_largest(_stable_indicator(_complement_rows(adj)), n))
    chi, assign = _first_proper_coloring(adj)
    coloring = {nodes[i]: assign[i] for i in range(n)}
    return GraphParameters(len(stable), len(clique), chi, clique, stable, coloring)


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


@lru_cache(maxsize=16)
def _subset_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """clear[i] marks the subsets of n vertices without vertex i, size[r] those of r vertices."""
    clear: tuple[int, ...] = ()
    size = (1,)
    for t in range(n):
        half = 1 << t
        clear = (*(c | c << half for c in clear), (1 << half) - 1)
        size = tuple(a | b << half for a, b in zip((*size, 0), (0, *size)))
    return clear, size


def _stable_indicator(rows: Sequence[int]) -> int:
    """The subsets that hold no edge of the graph with these adjacency rows."""
    if len(rows) > ORACLE_MAX_N:
        raise TooLargeError(f"subset enumeration capped at {ORACLE_MAX_N} vertices")
    clear = _subset_masks(len(rows))[0]
    ind = 1
    for t, row in enumerate(rows):
        # The stable sets that avoid the earlier neighbours of t take t on.
        z = ind
        for i in range(t):
            if row >> i & 1:
                z &= clear[i]
        ind |= z << (1 << t)
    return ind


def _members(x: int) -> list[int]:
    """Positions of the set bits of x, in increasing order."""
    out = []
    while x:
        out.append((x & -x).bit_length() - 1)
        x &= x - 1
    return out


def _largest(ind: int, n: int) -> int:
    """The subsets of the largest size among those the indicator ind of n vertices marks."""
    return next(ind & z for z in reversed(_subset_masks(n)[1]) if ind & z)


def _first_largest(ind: int, n: int) -> list[int]:
    """Members of the largest subset ind marks whose sorted member tuple is least.

    Among equal-size subsets that agree below vertex i, those holding i come first.
    """
    marked = _largest(ind, n)
    for c in _subset_masks(n)[0]:
        marked = marked & ~c or marked
    return _members(marked.bit_length() - 1)


def _max_stable_subsets(rows: Sequence[int]) -> list[int]:
    """Masks of the maximum stable sets, in increasing order, read off the stable-set indicator."""
    return _members(_largest(_stable_indicator(rows), len(rows)))


def _subset_levels(stable: int, cliques: int, n: int) -> tuple[list[int], list[int]]:
    """Level k of omega and of chi: the vertex subsets with omega <= k, and with chi <= k.

    Both are read off the stable-set and clique indicators of a graph on
    n vertices.  Each list stops at the level that holds every subset.
    Omega passes k on the supersets of a (k + 1)-clique.  For m disjoint
    from a stable set s, m | s = m + s, so chi level k - 1 at the
    positions disjoint from s, shifted up by s, marks sets with chi <= k.
    Only maximal s are shifted, and the union is closed downward: chi <= k
    is hereditary, so the union over all stable s equals the downward
    closure of the union over the maximal ones.
    """
    clear, size = _subset_masks(n)
    full = (1 << (1 << n)) - 1
    omega = []
    for sized in (*size[1:], 0):
        above = cliques & sized
        for i, c in enumerate(clear):
            above |= (above & c) << (1 << i)
        omega.append(full ^ above)
        if not above:
            break
    # A stable set that takes on one more vertex is not maximal.
    extends = 0
    for i, c in enumerate(clear):
        extends |= stable >> (1 << i) & c
    shifts = [(reduce(and_, [clear[i] for i in _members(s)], -1), s) for s in _members(stable & ~extends)]
    chi = [1]
    while chi[-1] != full:
        z = 0
        for disjoint, s in shifts:
            z |= (chi[-1] & disjoint) << s
        for i, c in enumerate(clear):
            z |= z >> (1 << i) & c
        chi.append(z)
    return omega, chi


def _definition_levels(G: Graph) -> Iterator[tuple[list[int], list[int]]]:
    """The omega and chi levels of G, then those of its complement, each when asked for.

    The complement's stable sets are G's cliques and its cliques G's
    stable sets, so one pair of indicators serves both, swapped for the
    complement.  Raises TooLargeError past DEFINITION_MAX_N at the first
    next(), before either indicator is built.
    """
    if G.n > DEFINITION_MAX_N:
        raise TooLargeError(f"perfection by definition capped at {DEFINITION_MAX_N} vertices")
    stable = _stable_indicator(G.bit_adjacency)
    cliques = _stable_indicator(_complement_rows(G.bit_adjacency))
    yield _subset_levels(stable, cliques, G.n)
    yield _subset_levels(cliques, stable, G.n)


def is_perfect_by_definition(G: Graph) -> bool:
    """True when chi equals omega on every induced subgraph, both as level bitsets.

    Raises TooLargeError past DEFINITION_MAX_N vertices.
    """
    omega, chi = next(_definition_levels(G))
    return omega == chi


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
    what stream_size raises, before the first graph.
    """
    total = stream_size(n, mode, count)
    bits = n * (n - 1) // 2
    if mode == "exhaustive":
        for mask in range(total):
            yield graph_from_mask(n, mask)
    else:
        rng = random.Random(seed)
        for _ in range(total):
            yield graph_from_mask(n, rng.getrandbits(bits) if bits else 0)


def stream_size(n: int, mode: str, count: int = 1000) -> int:
    """Number of graphs enumerate_graphs will yield.

    Raises ValueError for a negative n or count, and TooLargeError for an
    exhaustive stream past check_exhaustive_cap, before it counts anything.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if count < 0:
        raise ValueError(f"graph count must be non-negative, got {count}")
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
