"""Graph-building operations.

Single-vertex replication, expansion of every vertex into a clique with
a backward origin map, tagging of cover parts into disjoint copies, and
the separation construction that makes all maximum stable sets of a
graph pairwise disjoint in an expanded graph.

Fresh vertices always take consecutive ids starting at one past the
largest existing id, allocated in (part index, origin vertex) order, so
every construction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .core import (
    Cover,
    Graph,
    VertexSet,
    _compacted_rows,
    _is_morphism,
    _mask_vertices,
    _node_positions,
    _refuse_aliasing_keys,
    union_over,
    vertex_set,
)
from .errors import (
    EmptyGraphError,
    PartialMapError,
    TooLargeError,
    VertexNotFoundError,
    ZeroMultiplicityError,
)
from .invariants import max_stable_sets

# One copy per maximum stable set and member, each with a row as wide as
# the separated graph: a perfect matching on 2k vertices gives k * 2^k
# copies (10,240 at k = 10, 49,152 at k = 12), and a seeded interval
# graph with n = 60 gives 96,000, 1.15 GB of rows.
SEPARATION_MAX_VERTICES = 1 << 14


@dataclass(frozen=True)
class ReplicationWitness:
    """Base vertex and the fresh clone adjacent to it and its neighborhood."""

    base: int
    clone: int


def replicate(G: Graph, a: int) -> tuple[Graph, ReplicationWitness]:
    """Add a clone of vertex a, adjacent to a and to exactly a's neighbors."""
    if not G.has_node(a):
        raise VertexNotFoundError(f"vertex {a} not in graph")
    clone = G.nodes[-1] + 1
    ia = G.index[a]
    # The clone takes the last position, bit n: it joins the row of a and
    # of each neighbour of a, and its own row is a's row plus a.
    bit = 1 << G.n
    rows = list(G.bit_adjacency)
    nbrs = rows[ia]
    rows[ia] |= bit
    m = nbrs
    while m:
        low = m & -m
        rows[low.bit_length() - 1] |= bit
        m ^= low
    rows.append(nbrs | (1 << ia))
    return Graph(G.nodes + (clone,), tuple(rows)), ReplicationWitness(a, clone)


def verify_replication(G: Graph, w: ReplicationWitness, H: Graph) -> bool:
    """Check every clause of the replication relation between G and H.

    Works on bitmask rows: with H's clone bit removed, the row of each
    source node must be its row in G, shifted past the clone's position;
    the clone's row must be a's row in G plus a itself.
    """
    a, clone = w.base, w.clone
    if not G.has_node(a) or G.has_node(clone):
        return False
    if type(clone) is int and clone > G.nodes[-1]:
        # The shape replicate builds, which vertex_set would sort to itself.
        if H.nodes != G.nodes + (clone,):
            return False
    elif H.nodes != vertex_set(G.nodes + (clone,)):
        return False
    c = H.index[clone]
    bit = 1 << c
    lifted = G.bit_adjacency
    if c < G.n:
        # Past the clone's position, G's columns move up one place.
        lifted = [(row & bit - 1) | (row >> c << (c + 1)) for row in lifted]
    rows = H.bit_adjacency
    # Rows of the source nodes sit at their G position, one further past c.
    if any(h & ~bit != g for h, g in zip(rows[:c] + rows[c + 1 :], lifted)):
        return False
    # Symmetry of H makes the clone's column agree with this row.
    return rows[c] == lifted[G.index[a]] | (1 << H.index[a])


@dataclass(frozen=True)
class ExpansionWitness:
    """Backward origin map plus (origin, copy index) tags for fresh vertices."""

    back: dict[int, int]
    origin_tags: dict[int, tuple[int, int]]


def expand(G: Graph, mult: Mapping[int, int]) -> tuple[Graph, ExpansionWitness]:
    """Replace each vertex v by a clique of mult[v] fresh vertices.

    Copies of distinct origins are adjacent exactly when the origins are
    adjacent in G.  The witness's back map sends each fresh vertex to
    its origin and always satisfies verify_expansion.  A multiplicity
    keyed by a vertex outside G raises VertexNotFoundError, and one that
    is not an int (bool included), or keyed by an id that only equals a
    vertex (True for 1), raises ValueError.  More than
    SEPARATION_MAX_VERTICES copies in all, the row cost a separated
    graph may have, raise TooLargeError before any copy is made.
    """
    _refuse_aliasing_keys(G, mult)
    for v in mult:
        if not G.has_node(v):
            raise VertexNotFoundError(f"multiplicity given for vertex {v}, which is not in graph")
    for v in G.nodes:
        if v not in mult:
            raise PartialMapError(f"multiplicity missing for vertex {v}")
        if type(mult[v]) is not int:
            raise ValueError(f"multiplicity for vertex {v} must be an int, got {mult[v]!r}")
        if mult[v] < 1:
            raise ZeroMultiplicityError(f"multiplicity for vertex {v} must be >= 1")
    if sum(mult[v] for v in G.nodes) > SEPARATION_MAX_VERTICES:
        raise TooLargeError(f"expansion capped at {SEPARATION_MAX_VERTICES} vertices")
    nxt = G.nodes[-1] + 1 if G.nodes else 0
    tags: dict[int, tuple[int, int]] = {}
    groups: dict[int, int] = {}
    for v in G.nodes:
        groups[v] = ((1 << mult[v]) - 1) << len(tags)
        for i in range(mult[v]):
            tags[nxt] = (v, i)
            nxt += 1
    H = Graph(tuple(tags), tuple(_copy_rows(G, groups, len(tags))))
    back = {x: t[0] for x, t in tags.items()}
    if not verify_expansion(G, H, back):
        raise AssertionError("expand built a graph that is not an expansion")
    return H, ExpansionWitness(back, tags)


def _copy_rows(G: Graph, groups: Mapping[int, int], size: int) -> list[int]:
    """Adjacency rows of the expansion of G whose copies of v are the bits of groups[v].

    Each copy is adjacent to the other copies of its origin and to every
    copy of the origin's neighbours, read from G's edge list.  Deliberately
    not shared with verify_expansion, which reads G's bitmask rows, so
    that it checks an independent construction.
    """
    reach = dict(groups)
    for u, v in G.edges:
        reach[u] |= groups[v]
        reach[v] |= groups[u]
    rows = [0] * size
    for v, copies in groups.items():
        row = reach[v]
        while copies:
            low = copies & -copies
            rows[low.bit_length() - 1] = row ^ low
            copies ^= low
    return rows


def verify_expansion(G: Graph, H: Graph, back: Mapping[int, int]) -> bool:
    """Check that H is an expansion of G under the backward map.

    Requires back to be total on H's nodes, to map them onto G's nodes,
    to make equal-origin copies adjacent, and to transport adjacency
    between distinct origins exactly: that is, back maps H onto G keeping
    edge and non-edge once every vertex is counted adjacent to itself,
    as copies of one origin are to each other.  core._is_morphism checks
    this on the closed rows (each row with its own bit), each back value
    looked up at its position in G; the rows of a sparse graph stay
    sparse, where its complement rows would not.  Only a back value that
    is not a plain int goes through vertex_set, which raises ValueError
    on a bool, negative or non-int id; so does a key of back that only
    equals a node of H (True for 1).
    """
    _refuse_aliasing_keys(H, back)
    for x in H.nodes:
        if x not in back:
            raise PartialMapError(f"backward map undefined on vertex {x}")
    origin = _node_positions(G, [back[x] for x in H.nodes])
    if origin is None:
        return False
    closed_H = [row | 1 << j for j, row in enumerate(H.bit_adjacency)]
    closed_G = [row | 1 << o for o, row in enumerate(G.bit_adjacency)]
    return _is_morphism(closed_H, closed_G, origin)


def mk_disj(C: Cover) -> tuple[Cover, dict[int, tuple[int, int]]]:
    """Replace part i's vertices by fresh ids tagged (origin, i).

    The returned parts are pairwise disjoint by construction; the
    mapping records each fresh vertex's (origin, part index) tag.
    """
    base = union_over(C)
    parts, origins = _fresh_copies([vertex_set(part) for part in C], base[-1] + 1 if base else 0)
    origin = iter(origins)
    return parts, {x: (next(origin), i) for i, part in enumerate(parts) for x in part}


def _fresh_copies(C: Sequence[VertexSet], first: int) -> tuple[Cover, list[int]]:
    """mk_disj's ids for parts already sorted and deduplicated.

    Part i takes the next len(C[i]) ids, from first on, one per member
    in order.  Returns the fresh parts and each fresh id's origin, in id
    order.
    """
    parts = []
    for part in C:
        parts.append(tuple(range(first, first + len(part))))
        first += len(part)
    return tuple(parts), [v for part in C for v in part]


class Separation(NamedTuple):
    """Output of build_separated_graph."""

    base: Graph
    separated: Graph
    back: dict[int, int]
    stable_sets: Cover
    disjoint_parts: Cover


def build_separated_graph(G: Graph) -> Separation:
    """Expand G so its maximum stable sets become pairwise disjoint.

    base is G restricted to the vertices covered by maximum stable
    sets; separated carries one fresh copy of each vertex per stable
    set containing it.  Copies with equal origins are adjacent exactly
    when their part tags differ; copies with distinct origins mirror
    the base adjacency.  back projects fresh vertices to origins.
    Raises TooLargeError, before any copy is made, when the separated
    graph would have more than SEPARATION_MAX_VERTICES vertices; the
    stable-set listing stops as soon as its sets pass that count.

    base is G's rows compacted to the sets' union, and the fresh ids,
    parts and back map are mk_disj's, each set being listed in id order.
    """
    if G.n == 0:
        raise EmptyGraphError("separation requires a nonempty graph")
    stables = max_stable_sets(G, SEPARATION_MAX_VERTICES)
    size = len(stables) * len(stables[0])
    if size > SEPARATION_MAX_VERTICES:
        raise TooLargeError(f"separated graph capped at {SEPARATION_MAX_VERTICES} vertices")
    idx = G.index
    union = 0
    for part in stables:
        for v in part:
            union |= 1 << idx[v]
    base = Graph(_mask_vertices(G, union), _compacted_rows(G.bit_adjacency, union))
    parts, origins = _fresh_copies(stables, base.nodes[-1] + 1)
    fresh = tuple(range(parts[0][0], parts[0][0] + size))
    # Copies of one origin sit in distinct parts, so the tag rule makes
    # them a clique: separated is the expansion of base with these groups.
    groups = dict.fromkeys(base.nodes, 0)
    for x, v in enumerate(origins):
        groups[v] |= 1 << x
    separated = Graph(fresh, tuple(_copy_rows(base, groups, size)))
    return Separation(base, separated, dict(zip(fresh, origins)), stables, parts)
