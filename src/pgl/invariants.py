"""Exact graph parameters and the decidable predicates built on them.

Clique and stable numbers, together with the lexicographically least
maximum clique and stable set, come from one branch-and-bound over
vertex-ordered subsets with a greedy coloring bound; the chromatic
number from iterative deepening over a backtracking proper-coloring
search with the first vertex pinned to color 0.  Perfection uses
Lovasz's criterion (1972): G is perfect iff |S| <= alpha(G[S]) *
omega(G[S]) for every vertex set S.  Both numbers come from one O(2^n)
subset recurrence, held as level tables (one int per value, one bit
per subset) and grown a vertex at a time, so no coloring is searched
and is_perfect stops at the first vertex that completes a violating
set; graphs past PERFECTION_MAX_N vertices raise TooLargeError.  A walk
that finds no violating set has built the tables of the whole vertex
set too, so it also yields alpha(G) and omega(G); `pgl analyze` reads
them there and takes chi = omega on a perfect graph, and only an
imperfect graph goes through graph_parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Cover, Graph, VertexSet, _complement_rows, _mask_vertices, union_over, vertex_set
from .errors import InvalidColoringError, NotAStableCoverError, TooLargeError

Coloring = Mapping[int, int]

COVER_KINDS = ("stable", "clique")

# The perfection check keeps one bit per vertex subset and level: at the
# cap a call peaks at 4.4-5.3 MiB above its starting ru_maxrss on
# bipartite, split and interval graphs.
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
    vs, idx = vertex_set(I), G.index
    mask = sum(1 << idx[v] for v in vs if v in idx)
    return mask.bit_count() == len(vs) and not any(G.bit_adjacency[idx[v]] & mask for v in vs)


def is_clique(G: Graph, K: Iterable[int]) -> bool:
    """True when K is a subset of the nodes with every distinct pair adjacent."""
    vs, idx = vertex_set(K), G.index
    mask = sum(1 << idx[v] for v in vs if v in idx)
    return mask.bit_count() == len(vs) and all(mask & ~G.bit_adjacency[idx[v]] == 1 << idx[v] for v in vs)


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


def _max_clique(adj: Sequence[int], universe: int) -> tuple[int, int]:
    """Size and bitmask of the lexicographically least maximum clique in universe.

    The search meets cliques in lexicographic order of their sorted
    indices, and the mask is recorded only when the size strictly grows.
    Both prunes, on candidate count and on greedy color classes, cut
    only branches that cannot beat the best size so far, so while it is
    below omega no branch holding an omega-clique is cut: the first
    omega-clique met is the least one.
    """
    best, best_mask = 0, 0

    def extend(size: int, chosen: int, cand: int) -> None:
        nonlocal best, best_mask
        if size > best:
            best, best_mask = size, chosen
        if not cand or size + cand.bit_count() <= best:
            return
        # At best == size the bound prunes only an empty cand, handled above.
        if best > size and size + _greedy_color_classes(adj, cand) <= best:
            return
        m = cand
        while m:
            if size + m.bit_count() <= best:
                return
            v = m & -m
            i = v.bit_length() - 1
            m ^= v
            extend(size + 1, chosen | v, m & adj[i])

    extend(0, 0, universe)
    return best, best_mask


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
    return _max_clique(G.bit_adjacency, (1 << G.n) - 1)[0]


def stable_number(G: Graph) -> int:
    return _max_clique(_complement_rows(G.bit_adjacency), (1 << G.n) - 1)[0]


def chromatic_number(G: Graph) -> int:
    return _chromatic(G.bit_adjacency, G.n, clique_number(G))[0]


def max_clique_witness(G: Graph) -> VertexSet:
    """Lexicographically least clique of maximum size."""
    return _mask_vertices(G, _max_clique(G.bit_adjacency, (1 << G.n) - 1)[1])


def max_stable_witness(G: Graph) -> VertexSet:
    """Lexicographically least stable set of maximum size."""
    return _mask_vertices(G, _max_clique(_complement_rows(G.bit_adjacency), (1 << G.n) - 1)[1])


def graph_parameters(G: Graph) -> GraphParameters:
    """Exact alpha, omega, chi for G with validating witnesses."""
    n = G.n
    adj = G.bit_adjacency
    full = (1 << n) - 1
    omega, clique = _max_clique(adj, full)
    alpha, stable = _max_clique(_complement_rows(adj), full)
    chi, assign = _chromatic(adj, n, omega)
    params = GraphParameters(
        alpha,
        omega,
        chi,
        _mask_vertices(G, clique),
        _mask_vertices(G, stable),
        {G.nodes[i]: assign[i] for i in range(n)},
    )
    if params.omega > params.chi:
        raise AssertionError(f"graph_parameters found chi={chi} below omega={omega}")
    return params


class _ListingFull(Exception):
    """Stops _max_stable_masks once it holds more sets than its limit."""


def _max_stable_masks(
    adj: Sequence[int], n: int, alpha: int | None = None, limit: int | None = None
) -> list[int]:
    """Bitmask of every maximum-size stable set, in lexicographic order.

    alpha is the stable number when the caller already knows it;
    otherwise it is searched here.  With limit, the listing stops at its
    first limit + 1 sets, so a longer result means more than limit exist.
    """
    co = _complement_rows(adj)
    full = (1 << n) - 1
    most = float("inf") if limit is None else limit
    out: list[int] = []

    def extend(chosen: int, cand: int, need: int) -> None:
        if need == 0:
            out.append(chosen)
            if len(out) > most:
                raise _ListingFull
            return
        m = cand
        while m:
            if m.bit_count() < need:
                return
            v = m & -m
            i = v.bit_length() - 1
            m ^= v
            extend(chosen | v, m & co[i], need - 1)

    try:
        extend(0, full, _max_clique(co, full)[0] if alpha is None else alpha)
    except _ListingFull:
        pass
    return out


def max_stable_sets(G: Graph, max_total: int | None = None) -> Cover:
    """Every maximum-size stable set, each sorted, in lexicographic order.

    With max_total, α is searched first and the listing stops as soon
    as its sets hold more than max_total vertices in all (count × α):
    the result is then only its first max_total // α + 1 sets, enough
    for a caller to refuse the input without listing the rest.
    """
    if G.n == 0:
        return ()
    adj = G.bit_adjacency
    alpha = limit = None
    if max_total is not None:
        alpha = _max_clique(_complement_rows(adj), (1 << G.n) - 1)[0]
        limit = max_total // alpha
    return tuple(_mask_vertices(G, m) for m in _max_stable_masks(adj, G.n, alpha, limit))


def is_nice(G: Graph) -> bool:
    """True when the chromatic number equals the clique number."""
    adj = G.bit_adjacency
    full = (1 << G.n) - 1
    omega = _max_clique(adj, full)[0]
    return _try_color(adj, _color_order(adj, full), omega) is not None


# ---------------------------------------------------------------------------
# Perfection: Lovasz's criterion |S| <= alpha(G[S]) * omega(G[S]) on every S.
#
# A level table is an int with one bit per vertex set S.  Over the subsets
# of the first t vertices, level k of W marks the S with omega(G[S]) >= k,
# level k of A those with alpha(G[S]) >= k, and level r of P those with
# |S| >= r (the levels of the complete graph).  Vertex t adds the half of
# sets S | {t}.  As omega(S | {t}) = max(omega(S), 1 + omega(S & N(t))),
# the new half of W[k] is W[k] | W[k-1] gathered at S & N(t); A gathers
# at the non-neighbours of t instead.


_Shape = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]


def _next_shape(P: tuple[int, ...], drops: tuple[tuple[int, int], ...], t: int) -> _Shape:
    """P and the gather steps over the first t + 1 vertices, from those over t.

    A gather step (clear, 1 << i) drops vertex i: clear marks the table
    positions whose bit i is clear.
    """
    half = 1 << t
    grown = ((1 << 2 * half) - 1, *(P[r] | P[r - 1] << half for r in range(1, t + 1)), P[t] << half)
    return grown, (*((c | c << half, i) for c, i in drops), (P[0], half))


# P and the gather steps depend on t alone.  _SHAPES[t] holds them over
# the first t vertices for t <= _SHARED_T (28 KB in all); past that they
# are grown per call.
_SHARED_T = 12
_SHAPES: list[_Shape] = [((1,), ())]
for _t in range(_SHARED_T):
    _SHAPES.append(_next_shape(*_SHAPES[-1], _t))


def _grown(levels: list[int], drops: list[tuple[int, int]], ones: int) -> list[int]:
    """Levels of S | {t}, from the levels over S and the vertices to drop."""
    new = [ones, ones]
    top = len(levels)
    for k in range(1, top):
        z = levels[k]
        # Bit S of z becomes bit S - i of z for each dropped vertex i.
        for clear, shift in drops:
            z &= clear
            z |= z << shift
        if k + 1 < top:
            z |= levels[k + 1]
        elif not z:
            break
        new.append(z)
    return new


def _merge(levels: list[int], new: list[int], half: int) -> None:
    for k, z in enumerate(new):
        if k < len(levels):
            levels[k] |= z << half
        else:
            levels.append(z << half)


def _violations(W: list[int], A: list[int], size: tuple[int, ...], t: int) -> int:
    """The S whose S | {t} has more than alpha * omega vertices.

    W and A are the levels of the sets S | {t}, and size[r] marks the S
    with |S| + 1 >= r.  omega = 1 or alpha = 1 makes S | {t} a stable set
    or a clique, which never breaks the bound.
    """
    bad = 0
    top_w, top_a = len(W) - 1, len(A) - 1
    for w in range(2, top_w + 1):
        exact_w = W[w] ^ W[w + 1] if w < top_w else W[w]
        for a in range(2, top_a + 1):
            if w * a > t:
                break
            exact_a = A[a] ^ A[a + 1] if a < top_a else A[a]
            bad |= exact_w & exact_a & size[w * a + 1]
    return bad


def _lovasz_walk(G: Graph, early: bool) -> tuple[VertexSet | None, int | None, int | None]:
    """The least S by (size, mask) with |S| > alpha(G[S]) * omega(G[S]), then alpha(G) and omega(G).

    Adds the vertices one at a time and checks each new half of the
    level tables as it is built.  With early set, returns the least
    violating set of the first half that has one.  alpha and omega are
    read off the last half, whose top bit is the whole vertex set; they
    are None only when an early walk stops before that half, so a walk
    that returns no violating set always carries them.
    """
    n = G.n
    if n > PERFECTION_MAX_N:
        raise TooLargeError(f"perfection check capped at {PERFECTION_MAX_N} vertices")
    adj = G.bit_adjacency
    W, A = [1], [1]
    P, drops = _SHAPES[0]
    best_size, best_mask = n + 1, 0
    alpha = omega = 0 if n == 0 else None
    for t in range(n):
        half = 1 << t
        ones = P[0]
        row = adj[t]
        to_clique = []
        to_stable = []
        for i, step in enumerate(drops):
            (to_stable if row >> i & 1 else to_clique).append(step)
        # Bit S of level k of the new half: S | {t} reaches k.
        new_w = _grown(W, to_clique, ones)
        new_a = _grown(A, to_stable, ones)
        if t >= 4:
            size = (ones, *P, 0)
            bad = _violations(new_w, new_a, size, t)
            # Halves come in increasing mask order: a later half wins only
            # with a strictly smaller set.
            r = 5
            while bad and r < best_size:
                found = bad & (size[r] ^ size[r + 1])
                if found:
                    best_size, best_mask = r, half | ((found & -found).bit_length() - 1)
                    break
                r += 1
        if t + 1 == n:
            # Level k holds the sets that reach k, and the last bit of this
            # half is the whole vertex set: the levels past 0 holding it
            # count up to alpha in A and to omega in W.
            full = half - 1
            alpha = sum(z >> full & 1 for z in new_a) - 1
            omega = sum(z >> full & 1 for z in new_w) - 1
            break
        if early and best_mask:
            break
        _merge(W, new_w, half)
        _merge(A, new_a, half)
        # This half is merged; drop it (size holds the old P) before the
        # next vertex builds twice as much.
        new_w = new_a = size = bad = None
        P, drops = _SHAPES[t + 1] if t < _SHARED_T else _next_shape(P, drops, t)
    return (_mask_vertices(G, best_mask) if best_mask else None), alpha, omega


def imperfection_witness(G: Graph) -> VertexSet | None:
    """Node set of an induced subgraph with chi > omega, or None when perfect.

    Builds omega and alpha of every vertex subset as level tables (one
    bit per subset) and returns the least S, by size and then mask, with
    |S| > alpha(G[S]) * omega(G[S]).  By Lovasz (1972) such an S exists
    iff G is imperfect, and every such S is imperfect.  It is the
    smallest subset with chi > omega, ties broken by mask: a smallest
    such subset is minimally imperfect, so it breaks the bound, and no
    smaller subset can.  Raises TooLargeError past PERFECTION_MAX_N
    vertices.
    """
    return _lovasz_walk(G, early=False)[0]


def is_perfect(G: Graph) -> bool:
    """True when every induced subgraph has chi == omega (Lovasz's criterion).

    Stops at the first vertex whose new sets break the bound.  Raises
    TooLargeError past PERFECTION_MAX_N vertices.
    """
    return _lovasz_walk(G, early=True)[0] is None


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
