"""Exact graph parameters and the decidable predicates built on them.

Clique and stable numbers come from a branch-and-bound over
vertex-ordered subsets with a greedy coloring bound; the chromatic
number from iterative deepening over a backtracking proper-coloring
search with the first vertex pinned to color 0.  Perfection uses
Lovasz's criterion (1972): G is perfect iff |S| <= alpha(G[S]) *
omega(G[S]) for every vertex set S.  Both numbers come from one O(2^n)
subset recurrence, packed into a byte per subset, so no coloring is
searched; graphs past PERFECTION_MAX_N vertices raise TooLargeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .core import Cover, Graph, VertexSet, union_over, vertex_set
from .errors import InvalidColoringError, NotAStableCoverError, TooLargeError

Coloring = Mapping[int, int]

COVER_KINDS = ("stable", "clique")

# The perfection check keeps one byte per vertex subset: 1 MiB at the cap.
# Not affected by PGL_MAX_N, which only moves the oracle caps.
PERFECTION_MAX_N = 20


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
    if params.omega > params.chi:
        raise AssertionError(f"graph_parameters found chi={chi} below omega={omega}")
    return params


def _max_stable_masks(adj: Sequence[int], n: int, alpha: int | None = None) -> list[int]:
    """Bitmask of every maximum-size stable set, in lexicographic order.

    alpha is the stable number when the caller already knows it;
    otherwise it is searched here.
    """
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

    extend(0, full, _max_clique_size(co, full) if alpha is None else alpha)
    return out


def max_stable_sets(G: Graph) -> Cover:
    """Every maximum-size stable set, each sorted, in lexicographic order."""
    if G.n == 0:
        return ()
    return tuple(_mask_vertices(G, m) for m in _max_stable_masks(G.bit_adjacency, G.n))


def is_nice(G: Graph) -> bool:
    """True when the chromatic number equals the clique number."""
    if G.n == 0:
        return True
    adj = G.bit_adjacency
    full = (1 << G.n) - 1
    omega = _max_clique_size(adj, full)
    return _try_color(adj, _color_order(adj, full), omega) is not None


# ---------------------------------------------------------------------------
# Perfection: Lovasz's criterion |S| <= alpha(G[S]) * omega(G[S]) on every S.

# A clique and a stable set share at most one vertex, so omega + alpha <=
# |S| + 1 <= PERFECTION_MAX_N + 1.  Numbering the 253 pairs (omega, alpha)
# with that bound row by row packs both numbers of a subset into one byte:
# _PAIR_CODE[omega][alpha] encodes, _OMEGA[code] and _ALPHA[code] decode.
_PAIRS = tuple(
    (w, a) for w in range(PERFECTION_MAX_N + 2) for a in range(PERFECTION_MAX_N + 2 - w)
)
_OMEGA = tuple(w for w, _ in _PAIRS)
_ALPHA = tuple(a for _, a in _PAIRS)
_PAIR_CODE = tuple(
    tuple(code for code, (w, _) in enumerate(_PAIRS) if w == omega)
    for omega in range(PERFECTION_MAX_N + 2)
)


def imperfection_witness(G: Graph) -> VertexSet | None:
    """Node set of an induced subgraph with chi > omega, or None when perfect.

    Walks the vertex subsets by size, then mask, filling omega and alpha
    of each from smaller subsets, and returns the first S with
    |S| > alpha(G[S]) * omega(G[S]).  By Lovasz (1972) such an S exists
    iff G is imperfect, and every such S is imperfect.  The first one is
    the smallest subset with chi > omega, ties broken by mask: a
    smallest such subset is minimally imperfect, so it breaks the bound,
    and no smaller subset can.  Raises TooLargeError past
    PERFECTION_MAX_N vertices.
    """
    n = G.n
    if n > PERFECTION_MAX_N:
        raise TooLargeError(f"perfection check capped at {PERFECTION_MAX_N} vertices")
    adj = G.bit_adjacency
    omega_of, alpha_of, code = _OMEGA, _ALPHA, _PAIR_CODE
    top = 1 << n
    table = bytearray(top)
    for r in range(1, n + 1):
        m = (1 << r) - 1
        while m < top:
            v = m & -m
            rest = m ^ v
            inside = rest & adj[v.bit_length() - 1]
            # v joins a clique of its neighbours in rest, or a stable set
            # of its non-neighbours in rest, or neither.
            c = table[rest]
            w = omega_of[table[inside]] + 1
            a = alpha_of[table[rest ^ inside]] + 1
            if omega_of[c] > w:
                w = omega_of[c]
            if alpha_of[c] > a:
                a = alpha_of[c]
            if r > w * a:
                return _mask_vertices(G, m)
            table[m] = code[w][a]
            # Gosper's hack: the next larger mask with the same popcount.
            ripple = m + v
            m = (((ripple ^ m) >> 2) // v) | ripple
    return None


def is_perfect(G: Graph) -> bool:
    """True when every induced subgraph has chi == omega (Lovasz's criterion).

    Raises TooLargeError past PERFECTION_MAX_N vertices.
    """
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
