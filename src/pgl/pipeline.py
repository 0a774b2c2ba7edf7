"""Certifying pipeline from perfect graphs to complement colorings.

The route: separate the maximum stable sets, find a maximum clique of
the separated graph, and demand it meets every disjoint part.  Success
projects back to a clique meeting every maximum stable set; repeating
peels off one clique per unit of the stable number, yielding a clique
cover of that exact size, which re-reads as an optimal coloring of the
complement.  The size test doubles as a perfectness probe, so
non-perfect inputs yield structured, re-checkable negative evidence
instead of an exception.  A certificate proves its own alpha with alpha
pairwise non-adjacent vertices beside its alpha cliques covering V, so
verify_certificate searches nothing.

The separated graph is reasoned about, not built: its maximum cliques
are the copies of cliques of G, so the search runs on G's own bitmasks
and the stable-set masks.  The rounds do not build G[live] either: its
order is G's, so each lexicographic choice is the same on G's rows.
build_separated_graph remains the paper's construction for the CLI,
the sweeps, and the re-check of failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Cover, Graph, VertexSet, _complement_rows, _mask_vertices, _refuse_aliasing_keys, induced_subgraph
from .errors import EmptyGraphError
from .invariants import (
    _clique_mask,
    _max_clique,
    _max_stable_masks,
    check_cover,
    clique_number,
    cover_to_coloring,
    is_stable,
)

CLIQUE_GAP = "clique-gap"


@dataclass(frozen=True)
class PerfectnessFailure:
    """Re-checkable evidence that a graph cannot be perfect.

    The one kind, "clique-gap": the separated graph built on `subgraph`
    has maximum clique size `found`, short of the `required` disjoint
    parts.
    """

    kind: str
    subgraph: VertexSet
    found: int
    required: int


@dataclass(frozen=True)
class WpgtCertificate:
    """Clique cover of size alpha, an optimal complement coloring, and a
    stable set of alpha vertices that proves alpha is the stable number."""

    alpha: int
    stable_set: VertexSet
    clique_cover: Cover
    complement_coloring: dict[int, int]


def intersecting_clique(G: Graph) -> VertexSet | PerfectnessFailure:
    """A clique of G meeting every maximum stable set, or negative evidence.

    Equals the backward projection of the lexicographically least
    maximum clique of the separated graph, when that clique has one
    vertex per disjoint part; otherwise the clique-gap failure carries
    that clique's size.  The separated graph is not built: a clique of
    it holds at most one copy per part, and its origins form a clique K
    of G, so its maximum cliques are all copies of some K and their size
    is the number of maximum stable sets K meets.
    """
    if G.n == 0:
        raise EmptyGraphError("intersecting clique requires a nonempty graph")
    co = _complement_rows(G.bit_adjacency)
    full = (1 << G.n) - 1
    K = _round(G, full, co, _max_clique(co, full)[0])
    return K if isinstance(K, PerfectnessFailure) else _mask_vertices(G, K)


def _round(G: Graph, live: int, co: Sequence[int], alpha: int) -> int | PerfectnessFailure:
    """intersecting_clique of G[live] as a mask of G; co is G's complement rows, alpha is alpha(G[live])."""
    adj = G.bit_adjacency
    stables = _max_stable_masks(co, live, alpha)
    K = _least_clique_meeting_all(adj, stables)
    if K is None:
        return PerfectnessFailure(CLIQUE_GAP, _mask_vertices(G, live), _most_sets_met(adj, stables), len(stables))
    return K


def _least_clique_meeting_all(adj: Sequence[int], stables: Sequence[int]) -> int | None:
    """Mask of the least clique meeting every stable set, or None if none does.

    Separated ids run in (part index, origin) order, so the least
    separated clique picks, set by set, the smallest origin still
    completable; a set K already meets is settled, since a stable set
    meets a clique at most once.
    """
    count = len(stables)

    def extend(at: int, K: int, cand: int) -> int | None:
        while at < count and stables[at] & K:
            at += 1
        if at == count:
            return K
        m = stables[at] & cand
        while m:
            v = m & -m
            m ^= v
            K2 = K | v
            cand2 = cand & adj[v.bit_length() - 1]
            # Every later set must still meet K2 or a common neighbor.
            reach = K2 | cand2
            if all(stables[j] & reach for j in range(at + 1, count)):
                found = extend(at + 1, K2, cand2)
                if found is not None:
                    return found
        return None

    try:
        return extend(0, 0, (1 << len(adj)) - 1)
    finally:
        # extend holds its own cell: drop it so no reference cycle is left.
        del extend


def _most_sets_met(adj: Sequence[int], stables: Sequence[int]) -> int:
    """Largest number of the stable sets that one clique of the graph meets.

    Branch and bound over cliques inside the union of the sets.  A
    vertex adds the sets that contain it, none met yet since it is
    adjacent to the whole clique; the bound adds every set that still
    meets the candidates.
    """
    weight = [sum(1 for s in stables if s >> i & 1) for i in range(len(adj))]
    union = 0
    for s in stables:
        union |= s
    best = 0

    def extend(met: int, cand: int) -> None:
        nonlocal best
        if met > best:
            best = met
        m = cand
        while m:
            if met + sum(1 for s in stables if s & m) <= best:
                return
            v = m & -m
            m ^= v
            i = v.bit_length() - 1
            extend(met + weight[i], m & adj[i])

    try:
        extend(0, union)
        return best
    finally:
        del extend


def clique_cover_alpha(G: Graph) -> Cover | PerfectnessFailure:
    """Clique cover with exactly one part per unit of the stable number.

    Each round removes an intersecting clique K of G[live], lowering the
    stable number by exactly one, so it is searched once and handed
    down: a maximum stable set of G[live] minus its vertex in K is
    stable in G[live - K], and none of G[live] survives there.  This
    holds whether or not G is perfect; failures propagate unchanged.
    """
    co = _complement_rows(G.bit_adjacency)
    return _peel(G, co, _max_clique(co, (1 << G.n) - 1)[0])


def _peel(G: Graph, co: Sequence[int], alpha: int) -> Cover | PerfectnessFailure:
    """The rounds of clique_cover_alpha; co is G's complement rows and alpha is alpha(G)."""
    parts: list[VertexSet] = []
    live = (1 << G.n) - 1
    while live:
        K = _round(G, live, co, alpha)
        if isinstance(K, PerfectnessFailure):
            return K
        parts.append(_mask_vertices(G, K))
        live &= ~K
        alpha -= 1
    return tuple(parts)


def wpgt_certificate(G: Graph) -> WpgtCertificate | PerfectnessFailure:
    """Certificate pairing a size-alpha clique cover of G with a coloring
    of the complement that uses exactly that many colors."""
    co = _complement_rows(G.bit_adjacency)
    alpha, stable = _max_clique(co, (1 << G.n) - 1)
    cover = _peel(G, co, alpha)
    if isinstance(cover, PerfectnessFailure):
        return cover
    coloring = cover_to_coloring(Graph(G.nodes, co), cover)
    return WpgtCertificate(len(cover), _mask_vertices(G, stable), cover, coloring)


def verify_certificate(G: Graph, cert: WpgtCertificate) -> bool:
    """Re-check every certificate invariant from scratch, in O(n^2), with no search.

    The stable set and the cover's parts must each list distinct
    vertices, and the coloring must color exactly the graph's nodes.  A
    proper coloring of the complement is a partition of the nodes into
    cliques of G, so the coloring's classes are checked as a second clique
    cover, with alpha classes.
    """
    S = cert.stable_set
    if not len(set(S)) == len(S) == len(cert.clique_cover) == cert.alpha or not is_stable(G, S):
        return False
    if any(len(set(part)) != len(part) for part in cert.clique_cover):
        return False
    if not check_cover(G, cert.clique_cover, "clique"):
        return False
    coloring = cert.complement_coloring
    if coloring.keys() != set(G.nodes):
        return False
    index = G.index
    classes: dict[int, int] = {}
    for v, c in coloring.items():
        classes[c] = classes.get(c, 0) | 1 << index[v]
    # The stable set gives alpha(G) >= alpha and the cover alpha(G) <= alpha,
    # so the complement's omega is alpha and alpha colors are optimal.
    if len(classes) != cert.alpha:
        return False
    # The keys are the nodes, so the classes cover them; a key that only
    # equals a node (True for 1) is refused as a cover's id would be.
    _refuse_aliasing_keys(G, coloring)
    rows = G.bit_adjacency
    return all(_clique_mask(rows, mask) for mask in classes.values())


def recheck_failure(G: Graph, failure: PerfectnessFailure) -> bool:
    """Reproduce recorded negative evidence against the graph it came from."""
    members = set(failure.subgraph)
    if not members <= set(G.nodes):
        return False
    H = induced_subgraph(G, failure.subgraph)
    if failure.kind != CLIQUE_GAP or H.n == 0:
        return False
    # Imported here so that certify and verify never load the constructions.
    from .constructions import build_separated_graph

    sep = build_separated_graph(H)
    return (
        failure.found < failure.required
        and clique_number(sep.separated) == failure.found
        and len(sep.disjoint_parts) == failure.required
    )
