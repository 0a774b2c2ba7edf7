"""Isomorphism witnesses between graphs and desk-scale witness search.

A witness is an explicit pair of vertex maps (forward, backward); both
directions are checked as edge-preserving morphisms and the composite
must be the identity on the source.  The search backtracks over
degree-compatible bijections only, pruned further by neighborhood
degree multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .core import Graph, vertex_set
from .errors import PartialMapError


@dataclass(frozen=True)
class IsoWitness:
    forward: dict[int, int]
    backward: dict[int, int]


def verify_morph(f: Mapping[int, int], G: Graph, H: Graph) -> bool:
    """True when f maps G's nodes onto H's nodes preserving edge and non-edge."""
    for v in G.nodes:
        if v not in f:
            raise PartialMapError(f"map undefined on vertex {v}")
    if vertex_set(f[v] for v in G.nodes) != H.nodes:
        return False
    return all(
        G.adjacent(u, v) == H.adjacent(f[u], f[v]) for u, v in combinations(G.nodes, 2)
    )


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
    return {
        v: (G.degree(v), tuple(sorted(G.degree(u) for u in G.neighbors(v))))
        for v in G.nodes
    }


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
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        for w in candidates[v]:
            if w in used:
                continue
            if all(G.adjacent(v, u) == H.adjacent(w, x) for u, x in mapping.items()):
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
