"""Isomorphism witnesses between graphs and desk-scale witness search.

A witness is an explicit pair of vertex maps (forward, backward); both
directions are checked as edge-preserving morphisms and the composite
must be the identity on the source.  The morphism check works on the
bitmask rows: each row of the source must equal the OR of the preimage
masks of its image's neighbours.  The search backtracks over
degree-compatible bijections only, pruned further by neighborhood
degree multisets read off the rows' popcounts, and tests each candidate
pair against the pairs placed so far by row bits.  It shares no state
with the morphism check, which re-checks its witness from the maps
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Graph, _is_morphism, _node_positions
from .errors import PartialMapError


@dataclass(frozen=True)
class IsoWitness:
    forward: dict[int, int]
    backward: dict[int, int]


def verify_morph(f: Mapping[int, int], G: Graph, H: Graph) -> bool:
    """True when f maps G's nodes onto H's nodes preserving edge and non-edge.

    Works on bitmask rows: each image is looked up at its position in H,
    and core._is_morphism checks G's rows against H's.  Only an image
    that is not a plain int goes through vertex_set, which raises
    ValueError on a bool, negative or non-int id.
    """
    for v in G.nodes:
        if v not in f:
            raise PartialMapError(f"map undefined on vertex {v}")
    image = _node_positions(H, [f[v] for v in G.nodes])
    if image is None:
        return False
    return _is_morphism(G.bit_adjacency, H.bit_adjacency, image)


def verify_iso_witness(w: IsoWitness, G: Graph, H: Graph) -> bool:
    """True when forward and backward are mutually inverse morphisms G <-> H."""
    try:
        if not verify_morph(w.forward, G, H):
            return False
        if not verify_morph(w.backward, H, G):
            return False
    except PartialMapError:
        return False
    return all(w.backward[w.forward[x]] == x for x in G.nodes)


def _degree_profile(G: Graph) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Each node's degree and the sorted degrees of its neighbours, by row popcounts."""
    degrees = [row.bit_count() for row in G.bit_adjacency]
    profile = {}
    for v, row, d in zip(G.nodes, G.bit_adjacency, degrees):
        around = []
        while row:
            low = row & -row
            around.append(degrees[low.bit_length() - 1])
            row ^= low
        profile[v] = (d, tuple(sorted(around)))
    return profile


def find_isomorphism(G: Graph, H: Graph) -> IsoWitness | None:
    """Search for a verified witness G -> H; None when the graphs differ.

    Short-circuits on node/edge counts and degree multisets, then
    backtracks over candidates with matching degree profiles.  Exact at
    desk scale; larger inputs are best effort.
    """
    if G.n != H.n or G.m != H.m:
        return None
    pg = _degree_profile(G)
    ph = _degree_profile(H)
    if sorted(pg.values()) != sorted(ph.values()):
        return None
    candidates = {v: tuple(w for w in H.nodes if ph[w] == pg[v]) for v in G.nodes}
    order = sorted(G.nodes, key=lambda v: (len(candidates[v]), -G.degree(v), v))
    gpos, hpos = G.index, H.index
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        gv = G.bit_adjacency[gpos[v]]
        for w in candidates[v]:
            if w in used:
                continue
            hw = H.bit_adjacency[hpos[w]]
            if all(gv >> gpos[u] & 1 == hw >> hpos[x] & 1 for u, x in mapping.items()):
                mapping[v] = w
                used.add(w)
                if rec(pos + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    if not rec(0):
        return None
    forward = {v: mapping[v] for v in G.nodes}
    backward = {w: v for v, w in forward.items()}
    witness = IsoWitness(forward, backward)
    if not verify_iso_witness(witness, G, H):
        raise AssertionError("find_isomorphism built a witness that does not verify")
    return witness


def compose_witnesses(first: IsoWitness, second: IsoWitness) -> IsoWitness:
    """Witness G -> K obtained from witnesses G -> H and H -> K."""
    forward = {x: second.forward[y] for x, y in first.forward.items()}
    backward = {z: first.backward[y] for z, y in second.backward.items()}
    return IsoWitness(forward, backward)
