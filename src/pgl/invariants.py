"""Exact graph parameters and the decidable predicates built on them.

Clique and stable numbers, together with the lexicographically least
maximum clique and stable set, come from one branch-and-bound over
vertex-ordered subsets with a greedy coloring bound, whose first-fit
classes are peeled off the candidate mask one greedy stable set at a
time (peeling gives exactly first fit's partition); the chromatic
number from iterative deepening over a backtracking proper-coloring
search with the first vertex pinned to color 0, which keeps one mask
per color class and so tests each color with one AND.  Perfection uses
Lovasz's criterion (1972): G is perfect iff |S| <= alpha(G[S]) *
omega(G[S]) for every vertex set S.  Both numbers come from one O(2^n)
subset recurrence, held as level tables (one int per value, one bit
per subset) and grown a vertex at a time, so no coloring is searched
and is_perfect stops at the first vertex that completes a violating
set; graphs past PERFECTION_MAX_N vertices raise TooLargeError.  A new
vertex gathers each level at its neighbours by one AND with the table
of their subsets, then one shift-OR per non-neighbour (the other way
round for alpha); a vertex t <= _SMALL_T spreads by one product with
the table of the non-neighbours' subsets instead, from masks built once
per step and row.  One step adds a vertex: it builds both new halves
and returns the sets they complete that break the bound, none before
the fifth vertex and only a C5 at it.  So a walk starts from the tables
of its first five vertices (four when they are a C5), kept in a
module-level table keyed by the adjacency bits among them and built by
that step.  Filled, the prefix tables keep 580 KiB and the step masks
134 KiB (tracemalloc).  A walk that finds no violating set has built
the tables of the whole vertex set too, so it also yields alpha(G) and
omega(G); `pgl analyze` reads them there and takes
chi = omega on a perfect graph, and only an imperfect graph goes
through graph_parameters.  A walk's merged tables extend by one
trailing vertex through the same step, so the replication sweep walks
G once and decides each replica G + a' by one step.  All walks share one
table of size levels, grown a vertex at a time to the deepest step taken
(1.3 MiB kept after a walk at 20 vertices, about 24 MiB at 24).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_
from typing import Iterable, Mapping, Sequence

from .core import Cover, Graph, VertexSet, _complement_rows, _mask_vertices, _refuse_aliasing_keys, union_over
from .errors import InvalidColoringError, NotAStableCoverError, TooLargeError

Coloring = Mapping[int, int]

COVER_KINDS = ("stable", "clique")

# The perfection check keeps one bit per vertex subset and level: at the
# cap a call peaks at 2.8-3.8 MiB above its starting ru_maxrss on
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
    masks = _part_masks(G, (tuple(I),))
    return masks is not None and _stable_mask(G.bit_adjacency, masks[0])


def is_clique(G: Graph, K: Iterable[int]) -> bool:
    """True when K is a subset of the nodes with every distinct pair adjacent."""
    masks = _part_masks(G, (tuple(K),))
    return masks is not None and _clique_mask(G.bit_adjacency, masks[0])


def is_valid_coloring(G: Graph, f: Coloring) -> bool:
    """True when f assigns a color to every node and no edge is monochromatic."""
    _refuse_aliasing_keys(G, f)
    if any(v not in f for v in G.nodes):
        return False
    return all(f[u] != f[v] for u, v in G.edges)


def colors_used(G: Graph, f: Coloring) -> tuple[int, ...]:
    """Sorted image of the assignment restricted to the graph's nodes."""
    _refuse_aliasing_keys(G, f)
    return tuple(sorted({f[v] for v in G.nodes if v in f}))


# ---------------------------------------------------------------------------
# Bitmask search engines (shared by the parameter functions and the pipeline).


def _greedy_color_classes(adj: Sequence[int], cand: int) -> int:
    """Number of classes of the first-fit partition of cand into pairwise non-adjacent classes.

    The count bounds the largest clique inside cand from above.  The
    classes are peeled off one at a time: class k is the greedy maximal
    stable set, in index order, of what the earlier classes leave.  A
    vertex joins class k under first fit exactly when it is in no
    earlier class and no earlier member of class k is adjacent to it, so
    peeling yields first fit's partition, at one step per vertex.
    """
    count = 0
    while cand:
        count += 1
        free = cand
        while free:
            v = free & -free
            cand ^= v
            free &= ~(adj[v.bit_length() - 1] | v)
    return count


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

    try:
        extend(0, 0, universe)
        return best, best_mask
    finally:
        # extend holds its own cell: drop it so no reference cycle is left.
        del extend


def _try_color(adj: Sequence[int], order: Sequence[int], k: int) -> list[int] | None:
    """Backtracking proper coloring with at most k colors.

    Colors the subgraph induced by the indices in order; the result is
    indexed by node position, with -1 off the order.  New colors are
    introduced in index order, which pins the first vertex to color 0
    and prunes color permutations.  classes[c] is the mask of the
    vertices colored c so far, so color c is free for vertex i when
    classes[c] & adj[i] is 0.
    """
    n = len(order)
    assign = [-1] * len(adj)
    classes = [0] * k

    def rec(pos: int, used: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        v = 1 << i
        neigh = adj[i]
        for c in range(min(k, used + 1)):
            if not classes[c] & neigh:
                assign[i] = c
                classes[c] |= v
                if rec(pos + 1, used if c < used else used + 1):
                    return True
                classes[c] ^= v
        assign[i] = -1
        return False

    try:
        return assign if rec(0, 0) else None
    finally:
        del rec


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


def _max_stable_masks(co: Sequence[int], universe: int, alpha: int, limit: int | None = None) -> list[int]:
    """Bitmask of every stable set of size alpha inside universe, in lexicographic order.

    co holds the complement rows, and alpha is the stable number of the
    graph induced on universe.  With limit, the listing stops at its
    first limit + 1 sets, so a longer result means more than limit exist.
    """
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
        extend(0, universe, alpha)
    except _ListingFull:
        pass
    finally:
        del extend
    return out


def max_stable_sets(G: Graph, max_total: int | None = None) -> Cover:
    """Every maximum-size stable set, each sorted, in lexicographic order.

    With max_total, the listing stops as soon as its sets hold more than
    max_total vertices in all (count × α): the result is then only its
    first max_total // α + 1 sets, enough for a caller to refuse the
    input without listing the rest.
    """
    if G.n == 0:
        return ()
    co = _complement_rows(G.bit_adjacency)
    full = (1 << G.n) - 1
    alpha = _max_clique(co, full)[0]
    limit = None if max_total is None else max_total // alpha
    return tuple(_mask_vertices(G, m) for m in _max_stable_masks(co, full, alpha, limit))


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
#
# A level is gathered at S & N by mask, then spread: the AND with keep,
# the table of the subsets of N, leaves the sets inside N, and
# z |= z << (1 << i) for each earlier non-neighbour i copies each of them
# to the sets that add i, all of which miss i already.  Level 1 needs
# neither: S & N is nonempty exactly when S is no subset of the
# non-neighbours, so it gathers to ones ^ (the subsets of those).
#
# No set of fewer than five vertices breaks the bound, and a five-vertex
# set breaks it only as a C5.  The merged tables of the first five
# vertices depend on the ten adjacency bits among them alone: a walk
# starts from _PREFIXES, filled on first use, after four vertices when
# the first five are a C5, so that its step 4 finds that set.


# Shifting by _BITS[i] moves bit S of a level to bit S | {i}.
_BITS = tuple(1 << i for i in range(PERFECTION_MAX_N))
# P over the first T = len(_SIZES) - 2 vertices, T the deepest step taken,
# then a 0 level: step t <= T reads it cut to 2^t bits, by an AND.
_SIZES = [1, 0]
# Steps t <= _SMALL_T read their masks from _STEPS, keyed by t and row cut
# to its t bits (at most 511 keys, 134 KiB), and spread by one product;
# past t = 8 the product of 2^t-bit ints costs more than the shift-ORs.
_SMALL_T = 8
_STEPS: dict[tuple[int, int], tuple[int, int, int]] = {}


def _next_sizes() -> None:
    """Grow _SIZES from the first T vertices to the first T + 1."""
    half = 1 << (len(_SIZES) - 2)
    _SIZES[:] = [(1 << 2 * half) - 1, *(z | y << half for z, y in zip(_SIZES[1:], _SIZES)), 0]


def _grown(levels: Sequence[int], keep: int, spread: list[int] | int, first: int, ones: int) -> list[int]:
    """Levels of S | {t}, from the levels over S.

    New level k + 1 is levels[k + 1] or levels[k] gathered: the AND with
    keep, then a shift-OR by each shift in spread, or, when spread is the
    table of the subsets those shifts make, one product with it.  first
    is level 1 gathered, which needs neither.
    """
    new = [ones, ones]
    z = first
    if type(spread) is int:
        for y in levels[2:]:
            new.append(z | y)
            z = (y & keep) * spread
    else:
        for y in levels[2:]:
            new.append(z | y)
            z = y & keep
            for shift in spread:
                z |= z << shift
    if z:
        new.append(z)
    return new


def _violations(W: list[int], A: list[int], t: int) -> int:
    """The S whose S | {t} has more than alpha * omega vertices.

    W and A are the levels of the sets S | {t}, and _SIZES[r] marks the
    S with |S| >= r.  omega = 1 or alpha = 1 makes S | {t} a stable set
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
            bad |= exact_w & exact_a & _SIZES[w * a]
    return bad


def _step_masks(t: int, row: int) -> tuple[int, int, int, list[int], list[int]]:
    """The tables of the subsets of t's earlier neighbours and non-neighbours, ones, and their shifts."""
    near, far = [], []
    keep_w = keep_a = 1
    for shift in _BITS[:t]:
        if row & shift:
            near.append(shift)
            keep_w |= keep_w << shift
        else:
            far.append(shift)
            keep_a |= keep_a << shift
    return keep_w, keep_a, (1 << (1 << t)) - 1, near, far


def _halves(W: Sequence[int], A: Sequence[int], t: int, row: int) -> tuple[list[int], list[int], int]:
    """The step for vertex t: the new halves of W and A, and the S whose S | {t} breaks the bound.

    W and A are merged over the vertices before t, and bit i < t of row
    marks a neighbour of t.  The third value is 0 before t = 4, as no set
    of fewer than five vertices breaks the bound.  The walk, the prefix
    tables and the replica check (_breaks_bound) all take this one step,
    which first grows _SIZES to the first t vertices.
    """
    while len(_SIZES) < t + 2:
        _next_sizes()
    if t > _SMALL_T:
        keep_w, keep_a, ones, near, far = _step_masks(t, row)
    else:
        key = t, row & (_BITS[t] - 1)
        masks = _STEPS.get(key)
        if masks is None:
            masks = _STEPS[key] = _step_masks(t, row)[:3]
        # A gathered level spreads by one product with the other side's
        # subsets: no two products of their bits share a bit, so none carries.
        keep_w, keep_a, ones = masks
        near, far = keep_w, keep_a
    new_w = _grown(W, keep_w, far, ones ^ keep_a, ones)
    new_a = _grown(A, keep_a, near, ones ^ keep_w, ones)
    return new_w, new_a, _violations(new_w, new_a, t) if t >= 4 else 0


def _merge(levels: list[int], new: list[int], half: int) -> None:
    for k, z in enumerate(new):
        if k < len(levels):
            levels[k] |= z << half
        else:
            levels.append(z << half)


_Tables = tuple[tuple[int, ...], tuple[int, ...]]
# W and A of a walk, merged over its first t vertices, and t.
_Walked = tuple[list[int], list[int], int]
# W and A merged over the first len(rows) <= 5 vertices, keyed by rows,
# each vertex's row cut to its earlier neighbours: at most 1 + 2 + 8 + 64 +
# 1,024 keys (580 KiB).  The 12 five-row keys of a C5 map to None.
_PREFIXES: dict[tuple[int, ...], _Tables | None] = {}
# _EARLIER[t] marks the vertices before t.
_EARLIER = (0, 1, 3, 7, 15)


def _prefix_tables(rows: tuple[int, ...]) -> _Tables | None:
    """W and A merged over the vertices of rows, built by the walk's own step; None when they break the bound."""
    if not rows:
        return (1,), (1,)
    if rows not in _PREFIXES:
        t = len(rows) - 1
        W, A = map(list, _prefix_tables(rows[:t]))
        new_w, new_a, bad = _halves(W, A, t, rows[t])
        _merge(W, new_w, 1 << t)
        _merge(A, new_a, 1 << t)
        _PREFIXES[rows] = None if bad else (tuple(W), tuple(A))
    return _PREFIXES[rows]


def _walk(G: Graph, early: bool, whole: bool) -> tuple[int, int | None, int | None, _Walked]:
    """The least violating set's mask (0 when none), alpha(G), omega(G) and the walk's tables.

    Starts from the prefix tables of the first min(5, n - 1) vertices,
    adds the others one at a time and checks each new half of the level
    tables as it is built.  With early set, stops at the first half that
    holds a violating set.  alpha and omega are read off the last half,
    whose top bit is the whole vertex set; they are None only when an
    early walk stops before that half.  With whole set, a walk that does
    not stop early merges the last half too, so the tables W and A it
    returns cover all n vertices; otherwise they cover the vertices before
    the last half it built.  The tables end with that vertex count.
    """
    n = G.n
    if n > PERFECTION_MAX_N:
        raise TooLargeError(f"perfection check capped at {PERFECTION_MAX_N} vertices")
    if n == 0:
        return 0, 0, 0, ([1], [1], 0)
    adj = G.bit_adjacency
    start = min(5, n - 1)
    rows = tuple(map(and_, adj, _EARLIER[:start]))
    tables = _prefix_tables(rows)
    if tables is None:
        # The first five vertices are a C5: step 4 finds it.
        start = 4
        tables = _prefix_tables(rows[:4])
    W, A = map(list, tables)
    best_size, best_mask = n + 1, 0
    alpha = omega = None
    for t in range(start, n):
        half = 1 << t
        # Bit S of level k of the new half: S | {t} reaches k.
        new_w, new_a, bad = _halves(W, A, t, adj[t])
        if bad:
            # Halves come in increasing mask order: a later half wins only
            # with a strictly smaller set.  found: the S | {t} of r vertices.
            for r in range(5, best_size):
                found = bad & _SIZES[r - 1] ^ bad & _SIZES[r]
                if found:
                    best_size, best_mask = r, half | ((found & -found).bit_length() - 1)
                    break
        if t + 1 == n:
            # Level k holds the sets that reach k, and the last bit of this
            # half is the whole vertex set: the levels past 0 holding it
            # count up to alpha in A and to omega in W.
            full = half - 1
            alpha = sum(z >> full & 1 for z in new_a) - 1
            omega = sum(z >> full & 1 for z in new_w) - 1
            if not whole:
                break
        if early and best_mask:
            break
        _merge(W, new_w, half)
        _merge(A, new_a, half)
        # This half is merged; drop it before the next vertex builds twice
        # as much.
        new_w = new_a = bad = None
    else:
        t = n
    return best_mask, alpha, omega, (W, A, t)


def _breaks_bound(tables: _Walked, row: int) -> bool:
    """True when a vertex t appended to the graph of tables completes a set that breaks the bound.

    tables are W, A and t of a whole walk that found no violating set, so
    merged over vertices 0..t-1, and bit i < t of row marks a neighbour of
    t.  This is the step the walk of the graph with t appended takes for
    t, on the same tables, so it decides that graph as is_perfect does;
    past PERFECTION_MAX_N it raises TooLargeError, as is_perfect does.
    """
    W, A, t = tables
    if t >= PERFECTION_MAX_N:
        raise TooLargeError(f"perfection check capped at {PERFECTION_MAX_N} vertices")
    return _halves(W, A, t, row)[2] != 0


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
    best_mask = _walk(G, early=False, whole=False)[0]
    return _mask_vertices(G, best_mask) if best_mask else None


def is_perfect(G: Graph) -> bool:
    """True when every induced subgraph has chi == omega (Lovasz's criterion).

    Stops at the first vertex whose new sets break the bound.  Raises
    TooLargeError past PERFECTION_MAX_N vertices.
    """
    return not _walk(G, early=True, whole=False)[0]


# ---------------------------------------------------------------------------
# Covers and their exchange with colorings.


def _part_masks(G: Graph, C: Sequence[Iterable[int]], checked: bool = False) -> list[int] | None:
    """Each part of C as a mask of node positions of G; None when an id is not a node of G.

    Plain ints are looked up directly.  At the first id that is no plain
    int naming a node, the whole cover goes through union_over, which
    raises ValueError on a bool, negative or non-int id in any part, and
    is then read again as checked: an int subclass that passed is looked
    up like the int it equals.
    """
    index = G.index
    masks = []
    for part in C:
        mask = 0
        for v in part:
            if (not checked and type(v) is not int) or v not in index:
                if checked:
                    return None
                union_over(C)
                return _part_masks(G, C, checked=True)
            mask |= 1 << index[v]
        masks.append(mask)
    return masks


def _stable_mask(rows: Sequence[int], mask: int) -> bool:
    """True when no two positions of mask are adjacent in rows."""
    m = mask
    while m:
        low = m & -m
        if rows[low.bit_length() - 1] & mask:
            return False
        m ^= low
    return True


def _clique_mask(rows: Sequence[int], mask: int) -> bool:
    """True when every two positions of mask are adjacent in rows."""
    m = mask
    while m:
        low = m & -m
        if mask & ~rows[low.bit_length() - 1] != low:
            return False
        m ^= low
    return True


def _cover_masks(G: Graph, C: Cover, kind: str) -> list[int] | None:
    """The parts of C as masks when they union to the nodes and each is of the kind, else None."""
    if kind not in COVER_KINDS:
        raise ValueError(f"kind must be one of {COVER_KINDS}, got {kind!r}")
    masks = _part_masks(G, C)
    if masks is None:
        return None
    union = 0
    for mask in masks:
        union |= mask
    if union != (1 << G.n) - 1:
        return None
    rows = G.bit_adjacency
    test = _stable_mask if kind == "stable" else _clique_mask
    return masks if all(test(rows, mask) for mask in masks) else None


def check_cover(G: Graph, C: Cover, kind: str) -> bool:
    """True when C's parts union to the nodes and each part is stable or a clique."""
    return _cover_masks(G, C, kind) is not None


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
    masks = _cover_masks(G, C, "stable")
    if masks is None:
        raise NotAStableCoverError("parts must be stable sets covering all nodes")
    first = [0] * G.n
    seen = 0
    for i, mask in enumerate(masks):
        new = mask & ~seen
        seen |= new
        while new:
            low = new & -new
            first[low.bit_length() - 1] = i
            new ^= low
    return dict(zip(G.nodes, first))
