"""Exact graph parameters and the decidable predicates built on them.

Clique and stable numbers come from a branch-and-bound over
vertex-ordered subsets with a greedy coloring bound; the chromatic
number from iterative deepening over a backtracking proper-coloring
search with the first vertex pinned to color 0.  Perfection checks
chi = omega on every one of the 2^n vertex subsets, sharing two bitmask
dynamic programs across the subsets so exhaustive small-graph sweeps
stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .core import Cover, Graph, VertexSet, union_over, vertex_set
from .errors import InvalidColoringError, NotAStableCoverError

Coloring = Mapping[int, int]

COVER_KINDS = ("stable", "clique")

# Dynamic programming over all subsets is quadratic-exponential in n;
# beyond this cap perfection falls back to per-subset searches.
_SUBSET_TABLE_MAX_N = 12


@dataclass(frozen=True)
class GraphParameters:
    """Exact alpha, omega, chi together with validating witnesses."""

    alpha: int
    omega: int
    chi: int
    max_clique_witness: VertexSet
    max_stable_witness: VertexSet
    chi_witness: dict[int, int]


def is_stable(G: Graph, I: Iterable[int]) -> bool:
    """True when I is a subset of the nodes with no two members adjacent."""
    vs = vertex_set(I)
    if not set(vs) <= set(G.nodes):
        return False
    return all(not G.adjacent(u, v) for u, v in combinations(vs, 2))


def is_clique(G: Graph, K: Iterable[int]) -> bool:
    """True when K is a subset of the nodes with every distinct pair adjacent."""
    vs = vertex_set(K)
    if not set(vs) <= set(G.nodes):
        return False
    return all(G.adjacent(u, v) for u, v in combinations(vs, 2))


def is_valid_coloring(G: Graph, f: Coloring) -> bool:
    """True when f assigns a color to every node and no edge is monochromatic."""
    if any(v not in f for v in G.nodes):
        return False
    return all(f[u] != f[v] for u, v in G.edges)


def colors_used(G: Graph, f: Coloring) -> tuple[int, ...]:
    """Sorted image of the assignment restricted to the graph's nodes."""
    return tuple(sorted({f[v] for v in G.nodes if v in f}))


# ---------------------------------------------------------------------------
# Bitmask search engines (shared by the parameter functions and the pipeline).


def _greedy_color_classes(adj: Sequence[int], cand: int) -> int:
    """Greedy partition of cand into pairwise non-adjacent classes.

    The class count bounds the largest clique inside cand from above.
    """
    classes: list[int] = []
    m = cand
    while m:
        v = m & -m
        i = v.bit_length() - 1
        m ^= v
        for k, cls in enumerate(classes):
            if not cls & adj[i]:
                classes[k] = cls | v
                break
        else:
            classes.append(v)
    return len(classes)


def _max_clique_size(adj: Sequence[int], universe: int) -> int:
    best = 0

    def extend(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not cand or size + cand.bit_count() <= best:
            return
        if size + _greedy_color_classes(adj, cand) <= best:
            return
        m = cand
        while m:
            if size + m.bit_count() <= best:
                return
            v = m & -m
            i = v.bit_length() - 1
            m ^= v
            extend(size + 1, m & adj[i])

    extend(0, universe)
    return best


def _exists_clique(adj: Sequence[int], cand: int, k: int) -> bool:
    """Is there a clique of size at least k inside cand?"""
    if k <= 0:
        return True
    if cand.bit_count() < k or _greedy_color_classes(adj, cand) < k:
        return False
    m = cand
    while m:
        if m.bit_count() < k:
            return False
        v = m & -m
        i = v.bit_length() - 1
        m ^= v
        if _exists_clique(adj, m & adj[i], k - 1):
            return True
    return False


def _lex_min_clique(adj: Sequence[int], universe: int, k: int) -> int:
    """Bitmask of the lexicographically least clique of size k (one must exist)."""
    chosen = 0
    cand = universe
    need = k
    while need:
        m = cand
        committed = False
        while m:
            v = m & -m
            i = v.bit_length() - 1
            m ^= v
            if _exists_clique(adj, cand & adj[i], need - 1):
                chosen |= v
                cand &= adj[i]
                need -= 1
                committed = True
                break
        if not committed:
            raise AssertionError("no clique of the requested size exists")
    return chosen


def _co_adjacency(adj: Sequence[int], n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple((full & ~a) & ~(1 << i) for i, a in enumerate(adj))


def _try_color(adj: Sequence[int], order: Sequence[int], k: int) -> list[int] | None:
    """Backtracking proper coloring with at most k colors.

    Colors the subgraph induced by the indices in order; the result is
    indexed by node position, with -1 off the order.  New colors are
    introduced in index order, which pins the first vertex to color 0
    and prunes color permutations.
    """
    n = len(order)
    assign = [-1] * len(adj)

    def rec(pos: int, used: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        forbidden = 0
        neigh = adj[i]
        for j in order[:pos]:
            if neigh >> j & 1:
                forbidden |= 1 << assign[j]
        for c in range(min(k, used + 1)):
            if not forbidden >> c & 1:
                assign[i] = c
                if rec(pos + 1, used if c < used else used + 1):
                    return True
        assign[i] = -1
        return False

    return assign if rec(0, 0) else None


def _color_order(adj: Sequence[int], universe: int) -> list[int]:
    """Indices in universe by decreasing degree inside universe, then index."""
    members = [i for i in range(universe.bit_length()) if universe >> i & 1]
    return sorted(members, key=lambda i: (-(adj[i] & universe).bit_count(), i))


def _is_nice_mask(adj: Sequence[int], universe: int) -> bool:
    """Does the subgraph induced by universe have chi equal to omega?"""
    omega = _max_clique_size(adj, universe)
    return _try_color(adj, _color_order(adj, universe), omega) is not None


def _chromatic(adj: Sequence[int], n: int, lower: int) -> tuple[int, list[int]]:
    """Exact chi and a witness assignment by node index, deepening from lower."""
    if n == 0:
        return 0, []
    order = _color_order(adj, (1 << n) - 1)
    for k in range(max(lower, 1), n + 1):
        assign = _try_color(adj, order, k)
        if assign is not None:
            return k, assign
    raise AssertionError("n colors always suffice")


def clique_number(G: Graph) -> int:
    if G.n == 0:
        return 0
    return _max_clique_size(G.bit_adjacency, (1 << G.n) - 1)


def stable_number(G: Graph) -> int:
    if G.n == 0:
        return 0
    return _max_clique_size(_co_adjacency(G.bit_adjacency, G.n), (1 << G.n) - 1)


def chromatic_number(G: Graph) -> int:
    if G.n == 0:
        return 0
    return _chromatic(G.bit_adjacency, G.n, clique_number(G))[0]


def max_clique_witness(G: Graph) -> VertexSet:
    """Lexicographically least clique of maximum size."""
    if G.n == 0:
        return ()
    adj = G.bit_adjacency
    full = (1 << G.n) - 1
    mask = _lex_min_clique(adj, full, _max_clique_size(adj, full))
    return _mask_vertices(G, mask)


def max_stable_witness(G: Graph) -> VertexSet:
    """Lexicographically least stable set of maximum size."""
    if G.n == 0:
        return ()
    co = _co_adjacency(G.bit_adjacency, G.n)
    full = (1 << G.n) - 1
    mask = _lex_min_clique(co, full, _max_clique_size(co, full))
    return _mask_vertices(G, mask)


def _mask_vertices(G: Graph, mask: int) -> VertexSet:
    return tuple(G.nodes[i] for i in range(G.n) if mask >> i & 1)


def graph_parameters(G: Graph) -> GraphParameters:
    """Exact alpha, omega, chi for G with validating witnesses."""
    if G.n == 0:
        return GraphParameters(0, 0, 0, (), (), {})
    n = G.n
    adj = G.bit_adjacency
    co = _co_adjacency(adj, n)
    full = (1 << n) - 1
    omega = _max_clique_size(adj, full)
    alpha = _max_clique_size(co, full)
    chi, assign = _chromatic(adj, n, omega)
    params = GraphParameters(
        alpha,
        omega,
        chi,
        _mask_vertices(G, _lex_min_clique(adj, full, omega)),
        _mask_vertices(G, _lex_min_clique(co, full, alpha)),
        {G.nodes[i]: assign[i] for i in range(n)},
    )
    assert params.omega <= params.chi
    return params


def _max_stable_masks(adj: Sequence[int], n: int) -> list[int]:
    """Bitmask of every maximum-size stable set, in lexicographic order."""
    co = _co_adjacency(adj, n)
    full = (1 << n) - 1
    out: list[int] = []

    def extend(chosen: int, cand: int, need: int) -> None:
        if need == 0:
            out.append(chosen)
            return
        m = cand
        while m:
            if m.bit_count() < need:
                return
            v = m & -m
            i = v.bit_length() - 1
            m ^= v
            extend(chosen | v, m & co[i], need - 1)

    extend(0, full, _max_clique_size(co, full))
    return out


def max_stable_sets(G: Graph) -> Cover:
    """Every maximum-size stable set, each sorted, in lexicographic order."""
    if G.n == 0:
        return ()
    return tuple(_mask_vertices(G, m) for m in _max_stable_masks(G.bit_adjacency, G.n))


def is_nice(G: Graph) -> bool:
    """True when the chromatic number equals the clique number."""
    return G.n == 0 or _is_nice_mask(G.bit_adjacency, (1 << G.n) - 1)


# ---------------------------------------------------------------------------
# Perfection: every vertex subset must induce a nice graph.


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


def imperfection_witness(G: Graph) -> VertexSet | None:
    """Node set of an induced subgraph with chi > omega, or None when perfect.

    Among violating subsets the smallest is returned, ties broken by
    subset mask, so the evidence is deterministic and re-checkable.
    """
    n = G.n
    if n == 0:
        return None
    adj = G.bit_adjacency
    if n <= _SUBSET_TABLE_MAX_N:
        om, ch = _subset_tables(adj, n)
        bad = [m for m in range(1 << n) if ch[m] != om[m]]
        if not bad:
            return None
        best = min(bad, key=lambda m: (m.bit_count(), m))
        return _mask_vertices(G, best)
    for r in range(1, n + 1):
        m = (1 << r) - 1
        while m >> n == 0:
            if not _is_nice_mask(adj, m):
                return _mask_vertices(G, m)
            # Gosper's hack: the next larger mask with the same popcount.
            low = m & -m
            ripple = m + low
            m = (((ripple ^ m) >> 2) // low) | ripple
    return None


def is_perfect(G: Graph) -> bool:
    """True when every induced subgraph is nice, by enumerating all 2^n subsets."""
    return imperfection_witness(G) is None


# ---------------------------------------------------------------------------
# Covers and their exchange with colorings.


def check_cover(G: Graph, C: Cover, kind: str) -> bool:
    """True when C's parts union to the nodes and each part is stable or a clique."""
    if kind not in COVER_KINDS:
        raise ValueError(f"kind must be one of {COVER_KINDS}, got {kind!r}")
    if union_over(C) != G.nodes:
        return False
    pred = is_stable if kind == "stable" else is_clique
    return all(pred(G, part) for part in C)


def coloring_to_cover(G: Graph, f: Coloring) -> Cover:
    """Stable cover whose parts are the color classes, ordered by color."""
    if not is_valid_coloring(G, f):
        raise InvalidColoringError("assignment is not a proper coloring of the graph")
    groups: dict[int, list[int]] = {}
    for v in G.nodes:
        groups.setdefault(f[v], []).append(v)
    return tuple(tuple(groups[c]) for c in sorted(groups))


def cover_to_coloring(G: Graph, C: Cover) -> dict[int, int]:
    """Proper coloring from a stable cover: each vertex takes its first part's index.

    Uses at most len(C) colors; exactly len(C) when the parts are
    pairwise disjoint and nonempty.
    """
    if not check_cover(G, C, "stable"):
        raise NotAStableCoverError("parts must be stable sets covering all nodes")
    coloring: dict[int, int] = {}
    for v in G.nodes:
        for i, part in enumerate(C):
            if v in part:
                coloring[v] = i
                break
    return coloring
