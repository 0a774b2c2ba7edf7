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
from itertools import combinations
from typing import Mapping, NamedTuple

from .core import Cover, Graph, induced_subgraph, make_graph, union_over, vertex_set
from .errors import (
    EmptyGraphError,
    PartialMapError,
    VertexNotFoundError,
    ZeroMultiplicityError,
)
from .invariants import max_stable_sets


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
    edges = list(G.edges)
    edges.append((a, clone))
    edges.extend((x, clone) for x in G.neighbors(a))
    H = make_graph(G.nodes + (clone,), edges)
    return H, ReplicationWitness(a, clone)


def verify_replication(G: Graph, w: ReplicationWitness, H: Graph) -> bool:
    """Check every clause of the replication relation between G and H."""
    a, clone = w.base, w.clone
    if not G.has_node(a) or G.has_node(clone):
        return False
    if H.nodes != vertex_set(G.nodes + (clone,)):
        return False
    if not H.adjacent(a, clone):
        return False
    if any(G.adjacent(u, v) != H.adjacent(u, v) for u, v in combinations(G.nodes, 2)):
        return False
    # Neighbor mirroring is quantified over the source nodes; edges are
    # false off-nodes by the graph invariant, which closes the rest.
    return all(x == a or G.adjacent(x, a) == H.adjacent(x, clone) for x in G.nodes)


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
    keyed by a vertex outside G raises VertexNotFoundError.
    """
    for v in mult:
        if not G.has_node(v):
            raise VertexNotFoundError(f"multiplicity given for vertex {v}, which is not in graph")
    for v in G.nodes:
        if v not in mult:
            raise PartialMapError(f"multiplicity missing for vertex {v}")
        if mult[v] < 1:
            raise ZeroMultiplicityError(f"multiplicity for vertex {v} must be >= 1")
    nxt = G.nodes[-1] + 1 if G.nodes else 0
    tags: dict[int, tuple[int, int]] = {}
    group: dict[int, list[int]] = {}
    for v in G.nodes:
        ids = []
        for i in range(mult[v]):
            tags[nxt] = (v, i)
            ids.append(nxt)
            nxt += 1
        group[v] = ids
    edges: list[tuple[int, int]] = []
    for v in G.nodes:
        edges.extend(combinations(group[v], 2))
    for u, v in G.edges:
        edges.extend((x, y) for x in group[u] for y in group[v])
    H = make_graph(tags, edges)
    back = {x: t[0] for x, t in tags.items()}
    assert verify_expansion(G, H, back)
    return H, ExpansionWitness(back, tags)


def verify_expansion(G: Graph, H: Graph, back: Mapping[int, int]) -> bool:
    """Check that H is an expansion of G under the backward map.

    Requires back to be total on H's nodes, to map them onto G's nodes,
    to make equal-origin copies adjacent, and to transport adjacency
    between distinct origins exactly.  Works on bitmasks: each row of
    H's adjacency must equal the other copies of its origin together
    with every copy of the origin's neighbours in G.
    """
    for x in H.nodes:
        if x not in back:
            raise PartialMapError(f"backward map undefined on vertex {x}")
    if vertex_set(back[x] for x in H.nodes) != G.nodes:
        return False
    origin = [G.index[back[x]] for x in H.nodes]
    copies = [0] * G.n
    for j, o in enumerate(origin):
        copies[o] |= 1 << j
    # closed[o]: every copy of origin o and of its neighbours in G.  Row j
    # of H must be closed[origin of j] without bit j itself.
    closed = []
    for o, nbrs in enumerate(G.bit_adjacency):
        row = copies[o]
        while nbrs:
            low = nbrs & -nbrs
            row |= copies[low.bit_length() - 1]
            nbrs ^= low
        closed.append(row)
    return all(
        row == closed[o] & ~(1 << j) for j, (o, row) in enumerate(zip(origin, H.bit_adjacency))
    )


def mk_disj(C: Cover) -> tuple[Cover, dict[int, tuple[int, int]]]:
    """Replace part i's vertices by fresh ids tagged (origin, i).

    The returned parts are pairwise disjoint by construction; the
    mapping records each fresh vertex's (origin, part index) tag.
    """
    base = union_over(C)
    nxt = base[-1] + 1 if base else 0
    tags: dict[int, tuple[int, int]] = {}
    parts: list[tuple[int, ...]] = []
    for i, part in enumerate(C):
        fresh = []
        for v in vertex_set(part):
            tags[nxt] = (v, i)
            fresh.append(nxt)
            nxt += 1
        parts.append(tuple(fresh))
    return tuple(parts), tags


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
    """
    if G.n == 0:
        raise EmptyGraphError("separation requires a nonempty graph")
    stables = max_stable_sets(G)
    base = induced_subgraph(G, union_over(stables))
    parts, tags = mk_disj(stables)
    fresh = vertex_set(tags)
    edges: list[tuple[int, int]] = []
    for x, y in combinations(fresh, 2):
        ox, ix = tags[x]
        oy, iy = tags[y]
        if ox == oy:
            if ix != iy:
                edges.append((x, y))
        elif base.adjacent(ox, oy):
            edges.append((x, y))
    separated = make_graph(fresh, edges)
    back = {x: t[0] for x, t in tags.items()}
    return Separation(base, separated, back, stables, parts)
