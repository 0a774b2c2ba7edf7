"""Independent brute-force oracles and small-graph streams.

Everything here is deliberately naive and shares nothing with the
parameter module beyond the core graph type and its result record:
alpha and omega, with their witnesses, are the largest subsets that
the stable-set indicators of the graph and its complement mark, one
bit per vertex subset (bit m for the subset of the set bits of m).
Chi comes off level bitsets: level k of chi marks the subsets with
chi <= k, built from level k - 1 by adding each maximal stable set, and
chi is the first level that holds the whole vertex set; its witness is
peeled off the same levels, one maximal stable set per color.  Berge
recognition reads a 2-regular indicator, marking the subsets in which
every member has exactly two neighbours inside, and walks its odd
subsets of five or more vertices, shortest and then least first, until
one is a single chordless cycle.  Perfection by definition checks chi ==
omega on every vertex subset directly, rather than through Lovasz's
alpha * omega bound that invariants.is_perfect uses: it compares the chi
levels with the omega levels, level k of omega marking the subsets
holding no (k + 1)-clique.  The maximum stable sets the separation sweep
compares and both level lists come off the same indicator.  One vertex
cap, ORACLE_MAX_N, keeps every subset enumeration at desk scale.

Up to _TABLE_MAX_N = 8 vertices three readers use subset tables, the
table of a vertex set marking each of its subsets, in place of a loop
over members or neighbours: a chi level is one product per maximal
stable set s (the sets of the level before that miss s, times the
subsets of s), the 2-regular indicator one product per vertex (the
pairs of its neighbours, times the subsets of its non-neighbours) and
the stable-set indicator one AND per vertex (the sets so far that miss
its neighbours).  The two factors of each product mark subsets of
disjoint vertex sets, so each pair of set bits lands on its own bit,
the union of the two subsets, and nothing carries.  The tables are the
oracle's own: the alpha * omega walk it is compared with keeps others.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .core import Graph, _complement_rows, complement, induced_subgraph
from .errors import TooLargeError
from .invariants import GraphParameters

ORACLE_MAX_N = 20
EXHAUSTIVE_MAX_N = 6
DEFAULT_SEED = 42


def oracle_parameters(G: Graph) -> GraphParameters:
    """alpha, omega and their witnesses off the stable-set indicators of G
    and its complement, each witness the largest marked set with the least
    sorted member tuple; chi off the chi levels, the first that holds the
    whole vertex set.  Color c of the chi witness is the part, among the
    vertices not yet colored, of the first maximal stable set (by mask)
    whose removal leaves a set with chi <= chi(G) - c - 1: the levels are
    closed downward, so one exists, and it meets what is left.  Raises
    TooLargeError past the vertex cap, before any indicator is built.
    """
    n = G.n
    clear, size = _capped_masks(n)
    nodes, adj = G.nodes, G.bit_adjacency
    ind = _stable_indicator(adj, clear)
    stable = tuple(nodes[i] for i in _first_largest(ind, clear, size))
    clique = tuple(nodes[i] for i in _first_largest(_stable_indicator(_complement_rows(adj), clear), clear, size))
    sets = _maximal_sets(ind, clear)
    chi = _chi_levels(sets, clear)
    assign = [0] * n
    rest = (1 << n) - 1
    for c, below in enumerate(reversed(chi[:-1])):
        s = next(s for s in sets if below >> (rest & ~s) & 1)
        for i in _members(rest & s):
            assign[i] = c
        rest &= ~s
    coloring = {nodes[i]: assign[i] for i in range(n)}
    return GraphParameters(len(stable), len(clique), len(chi) - 1, clique, stable, coloring)


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


def _two_regular_indicator(rows: Sequence[int], masks: _Masks) -> int:
    """The subsets in which every member has exactly two neighbours; masks as in _subset_masks."""
    clear, size = masks
    n = len(clear)
    full = (1 << (1 << n)) - 1
    ind = full
    # Below two vertices there is no pair to table, and no size[2].
    if 2 <= n <= _TABLE_MAX_N:
        every = (1 << n) - 1
        for i, row in enumerate(rows):
            # The pairs of i's neighbours, each joined with every subset of
            # the other vertices: the subsets meeting N(i) in exactly two.
            ind &= clear[i] | (_table(row) & size[2]) * _table(every ^ row)
        return ind
    for i, row in enumerate(rows):
        # e0, e1, e2: the subsets holding none, one, or exactly two of i's
        # neighbours seen so far.
        e0, e1, e2 = full, 0, 0
        while row:
            low = row & -row
            row ^= low
            out = clear[low.bit_length() - 1]
            into = ~out
            e2 = e2 & out | e1 & into
            e1 = e1 & out | e0 & into
            e0 &= out
        ind &= clear[i] | e2
    return ind


def _find_odd_induced_cycle(G: Graph, masks: _Masks, shortest: int = 5) -> tuple[int, ...] | None:
    """Walk of the least odd chordless cycle of G of length >= shortest, or None.

    Least means shortest, then least in combinations order.  A cycle's
    members each have exactly two neighbours inside it, so only the
    subsets the 2-regular indicator marks go to _cycle_order, each
    length's in combinations order, least first, as _first_largest picks.
    masks are _subset_masks(G.n).
    """
    clear, size = masks
    nodes = G.nodes
    ind = _two_regular_indicator(G.bit_adjacency, masks)
    for length in range(shortest, G.n + 1, 2):
        marked = ind & size[length]
        # Equal-size subsets in combinations order are in the order of their
        # sorted member tuples.
        for mask in sorted(_members(marked), key=_members):
            cycle = _cycle_order(G, tuple(nodes[i] for i in _members(mask)))
            if cycle is not None:
                return cycle
    return None


def find_odd_hole_or_antihole(G: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Shortest odd induced cycle of length >= 5 in G, else in complement(G).

    Returns ("hole", cycle) or ("antihole", cycle); the antihole cycle
    is listed in complement order.  None when the graph is Berge.  The
    subset masks are built once and serve both scans.  The complement's
    starts at 7, since C5 is its own complement and the scan of G has
    found every 5-hole, so a graph on fewer vertices has none.  Raises
    TooLargeError past ORACLE_MAX_N vertices, before any mask is built.
    """
    masks = _capped_masks(G.n)
    hole = _find_odd_induced_cycle(G, masks)
    if hole is not None:
        return "hole", hole
    if G.n < 7:
        return None
    antihole = _find_odd_induced_cycle(complement(G), masks, 7)
    if antihole is not None:
        return "antihole", antihole
    return None


def is_berge(G: Graph) -> bool:
    """True when neither G nor its complement has an odd hole."""
    return find_odd_hole_or_antihole(G) is None


_Masks = tuple[tuple[int, ...], tuple[int, ...]]

# The subset masks depend on n alone.  Those of n <= _SHARED_N vertices
# are kept once built (0.5 MiB in all); past that they are built per
# call, since those of n = 20 alone hold 5 MiB.
_SHARED_N = 16
_SHARED_MASKS: dict[int, _Masks] = {}


def _subset_masks(n: int) -> _Masks:
    """clear[i] marks the subsets of n vertices without vertex i, size[r] those of r vertices."""
    masks = _SHARED_MASKS.get(n)
    if masks is None:
        clear: tuple[int, ...] = ()
        size = (1,)
        for t in range(n):
            half = 1 << t
            clear = (*(c | c << half for c in clear), (1 << half) - 1)
            size = tuple(a | b << half for a, b in zip((*size, 0), (0, *size)))
        masks = clear, size
        if n <= _SHARED_N:
            _SHARED_MASKS[n] = masks
    return masks


# Subset tables: _table(mask) marks the subsets of the vertex set mask.
# The readers use them at n <= _TABLE_MAX_N, which bounds the cache at
# 256 keys, 18 KiB in all.  There a product by a table costs less than
# a reader's loop over members or neighbours; from n = 12 on G(n, 1/2)
# the chi products cost more.
_TABLE_MAX_N = 8
_TABLES: dict[int, int] = {}


def _table(mask: int) -> int:
    """Bit S set for every subset S of the vertex set mask."""
    table = _TABLES.get(mask)
    if table is None:
        table, rest = 1, mask
        while rest:
            low = rest & -rest
            # The subsets so far, and each of them with the vertex at bit low.
            table |= table << low
            rest ^= low
        _TABLES[mask] = table
    return table


def _capped_masks(n: int) -> _Masks:
    """The subset masks of n vertices; TooLargeError past ORACLE_MAX_N, before any is built."""
    if n > ORACLE_MAX_N:
        raise TooLargeError(f"subset enumeration capped at {ORACLE_MAX_N} vertices")
    return _subset_masks(n)


def _stable_indicator(rows: Sequence[int], clear: tuple[int, ...]) -> int:
    """The subsets that hold no edge of the graph with these adjacency rows; clear as in _subset_masks."""
    ind = 1
    if len(rows) <= _TABLE_MAX_N:
        every = (1 << len(rows)) - 1
        for t, row in enumerate(rows):
            # The stable sets so far that miss the neighbours of t take t on.
            ind |= (ind & _table(every ^ row)) << (1 << t)
        return ind
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


def _largest(ind: int, size: tuple[int, ...]) -> int:
    """The subsets of the largest size among those the indicator ind marks."""
    return next(ind & z for z in reversed(size) if ind & z)


def _first_largest(ind: int, clear: tuple[int, ...], size: tuple[int, ...]) -> list[int]:
    """Members of the largest subset ind marks whose sorted member tuple is least.

    Among equal-size subsets that agree below vertex i, those holding i come first.
    """
    marked = _largest(ind, size)
    for c in clear:
        marked = marked & ~c or marked
    return _members(marked.bit_length() - 1)


def _max_stable_subsets(rows: Sequence[int]) -> list[int]:
    """Masks of the maximum stable sets, in increasing order, read off the stable-set indicator."""
    clear, size = _capped_masks(len(rows))
    return _members(_largest(_stable_indicator(rows, clear), size))


def _maximal_sets(stable: int, clear: tuple[int, ...]) -> list[int]:
    """Masks of the maximal stable sets, in increasing order, read off the stable-set indicator."""
    # A stable set that takes on one more vertex is not maximal.
    extends = 0
    for i, c in enumerate(clear):
        extends |= stable >> (1 << i) & c
    return _members(stable & ~extends)


def _omega_levels(cliques: int, clear: tuple[int, ...], size: tuple[int, ...]) -> list[int]:
    """Level k of omega: the vertex subsets with omega <= k, read off the clique indicator.

    Omega passes k on the supersets of a (k + 1)-clique.  The list stops
    at the level that holds every subset.
    """
    full = (1 << (1 << len(clear))) - 1
    omega = []
    for sized in (*size[1:], 0):
        above = cliques & sized
        for i, c in enumerate(clear):
            above |= (above & c) << (1 << i)
        omega.append(full ^ above)
        if not above:
            break
    return omega


def _chi_levels(sets: Sequence[int], clear: tuple[int, ...]) -> list[int]:
    """Level k of chi: the vertex subsets with chi <= k, built from the maximal stable sets.

    For m disjoint from a stable set s, m | s = m + s, so chi level k - 1
    with the members of s masked out, shifted up by s, marks sets with
    chi <= k.  Only maximal s are shifted, and the union is closed
    downward: chi <= k is hereditary, so the union over all stable s
    equals the downward closure of the union over the maximal ones.  Each
    set is masked out of the previous level as it comes, so no mask per
    set is held.  Up to _TABLE_MAX_N vertices each s takes one product
    instead: the sets of level k - 1 that miss s, times the table of s,
    mark every m | t with t a subset of s, and the union of these needs
    no closing, since a set X with chi <= k is X - s, of chi <= k - 1,
    joined with the part in s, for s a maximal stable set holding one
    colour class of X.  The list stops at the level that holds every
    subset.
    """
    n = len(clear)
    full = (1 << (1 << n)) - 1
    chi = [1]
    if n <= _TABLE_MAX_N:
        every = (1 << n) - 1
        tables = [(_table(every ^ s), _table(s)) for s in sets]
        while chi[-1] != full:
            z = 0
            for outside, inside in tables:
                z |= (chi[-1] & outside) * inside
            chi.append(z)
        return chi
    members = [(s, _members(s)) for s in sets]
    while chi[-1] != full:
        z = 0
        for s, vertices in members:
            disjoint = chi[-1]
            for i in vertices:
                disjoint &= clear[i]
            z |= disjoint << s
        for i, c in enumerate(clear):
            z |= z >> (1 << i) & c
        chi.append(z)
    return chi


def _definition_levels(G: Graph) -> Iterator[tuple[list[int], list[int]]]:
    """The omega and chi levels of G, then those of its complement, each when asked for.

    The complement's stable sets are G's cliques and its cliques G's
    stable sets, so one pair of indicators serves both, swapped for the
    complement.  Raises TooLargeError past ORACLE_MAX_N at the first
    next(), before any subset mask is built.
    """
    clear, size = _capped_masks(G.n)
    stable = _stable_indicator(G.bit_adjacency, clear)
    cliques = _stable_indicator(_complement_rows(G.bit_adjacency), clear)
    yield _omega_levels(cliques, clear, size), _chi_levels(_maximal_sets(stable, clear), clear)
    yield _omega_levels(stable, clear, size), _chi_levels(_maximal_sets(cliques, clear), clear)


def is_perfect_by_definition(G: Graph) -> bool:
    """True when chi equals omega on every induced subgraph, both as level bitsets.

    Raises TooLargeError past ORACLE_MAX_N vertices.
    """
    omega, chi = next(_definition_levels(G))
    return omega == chi


def labeled_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs of {1..n} in lexicographic order; bit i of an edge
    bitmask refers to entry i."""
    return tuple(combinations(range(1, n + 1), 2))


_Pieces = tuple[
    tuple[int, ...],
    tuple[tuple[int, int, int], ...],
    tuple[int, ...],
    tuple[tuple[int, int, int, int], ...],
    tuple[int, ...],
    int,
    tuple[int, ...],
]


@lru_cache(maxsize=16)
def _row_pieces(n: int) -> _Pieces:
    """The tables that turn an n-vertex edge bitmask into packed rows, 7 bits at a time.

    The rows sit packed in one int, row i at bits n*i to n*i + n - 1.
    The mask's pairs (i, j), j > i, are cut into pieces of at most 7
    consecutive columns of one row i, the first piece starting at
    column i + 1.  Piece bits b at columns j.. set the upper bits b <<
    (n*i + j) and the lower bits spread[b] << (n*j + i), spread[b] moving
    bit t of b to bit n*t.  A row's first piece is one lookup, first[b]
    << (n*i + i + 1), first[b] holding both parts; later pieces, at
    n >= 9, take both shifts.  Returns first, the first pieces as
    (start, keep, shift), spread, the later pieces as (start, keep,
    upper, lower), the row shifts, the row mask and the node tuple;
    start is a piece's first mask bit and keep its width mask.  The two
    tables hold 128 ints of at most 7n bits and there are about n^2/14
    pieces, so the whole grows as n^2, as the graph does.  Built on
    first use for each n; a stream asks for one n throughout.
    """
    spread = [0]
    for t in range(7):
        spread += [bits | 1 << (n * t) for bits in spread]
    first = tuple(b | lower << max(n - 1, 0) for b, lower in enumerate(spread))
    firsts, later = [], []
    start = 0
    for i in range(n - 1):
        for j in range(i + 1, n, 7):
            width = min(7, n - j)
            if j == i + 1:
                firsts.append((start, (1 << width) - 1, n * i + j))
            else:
                later.append((start, (1 << width) - 1, n * i + j, n * j + i))
            start += width
    shifts = tuple(n * i for i in range(n))
    return first, tuple(firsts), tuple(spread), tuple(later), shifts, (1 << n) - 1, tuple(range(1, n + 1))


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph on {1..n} whose edges are the pairs of labeled_pairs(n) at mask's set bits.

    Bits past the last pair are ignored.  The rows are built packed in
    one int, one table lookup per row piece of _row_pieces(n), and cut
    apart by shifts.  At n = 7 that is six lookups, one per row, from
    two tables of 128 ints (about 10 KiB); at n = 20, 36 lookups from
    the same two tables, then of ints up to 140 bits (about 12 KiB).
    """
    first, firsts, spread, later, shifts, row, nodes = _row_pieces(n)
    packed = 0
    for start, keep, shift in firsts:
        packed |= first[mask >> start & keep] << shift
    for start, keep, upper, lower in later:
        bits = mask >> start & keep
        packed |= bits << upper | spread[bits] << lower
    return Graph(nodes, tuple([packed >> s & row for s in shifts]))


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
