"""Isomorphism witnesses: verification, search, transport of structure."""

import hashlib

import pytest

from pgl import (
    IsoWitness,
    PartialMapError,
    complement,
    compose_witnesses,
    find_isomorphism,
    graph_parameters,
    induced_subgraph,
    is_clique,
    is_induced_subgraph,
    is_perfect,
    is_stable,
    make_graph,
    verify_iso_witness,
    verify_morph,
)

from conftest import complete, cycle, edgeless, house, path, pinned_graphs, run_optimized


def relabel(g, offset):
    mapping = {v: v + offset for v in g.nodes}
    return make_graph(mapping.values(), [(mapping[u], mapping[v]) for u, v in g.edges]), mapping


def test_identity_is_a_morphism():
    g = cycle(5)
    ident = {v: v for v in g.nodes}
    assert verify_morph(ident, g, g)
    assert verify_iso_witness(IsoWitness(ident, ident), g, g)


def test_pentagon_onto_its_complement():
    g = cycle(5)
    h = complement(g)
    forward = {1: 1, 2: 3, 3: 5, 4: 2, 5: 4}
    assert verify_morph(forward, g, h)
    backward = {w: v for v, w in forward.items()}
    assert verify_iso_witness(IsoWitness(forward, backward), g, h)


def test_collapsing_map_is_not_a_morphism():
    g = complete(2)
    h = make_graph([1])
    assert not verify_morph({1: 1, 2: 1}, g, h)


def test_partial_map_raises():
    with pytest.raises(PartialMapError):
        verify_morph({1: 1}, complete(2), complete(2))


def test_a_map_key_that_only_equals_a_node_is_refused():
    # True equals 1, so a lookup of node 1 used to find it and accept the map.
    g = house()
    ident = {v: v for v in g.nodes}
    aliased = {True: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    refused = "vertex ids must be non-negative integers, got True"
    with pytest.raises(ValueError, match=refused):
        verify_morph(aliased, g, g)
    for w in (IsoWitness(aliased, ident), IsoWitness(ident, aliased)):
        with pytest.raises(ValueError, match=refused):
            verify_iso_witness(w, g, g)


def test_wrong_inverse_is_rejected():
    g = cycle(5)
    h, mapping = relabel(g, 10)
    backward = {w: 1 for w in h.nodes}
    assert not verify_iso_witness(IsoWitness(mapping, backward), g, h)


def test_find_isomorphism_pentagon_complement():
    g = cycle(5)
    w = find_isomorphism(g, complement(g))
    assert w is not None
    assert verify_iso_witness(w, g, complement(g))


def test_find_isomorphism_relabeled():
    g = cycle(5)
    h, _ = relabel(g, 10)
    w = find_isomorphism(g, h)
    assert w is not None and verify_iso_witness(w, g, h)


def test_find_isomorphism_absent():
    assert find_isomorphism(cycle(4), path(4)) is None
    assert find_isomorphism(path(3), path(4)) is None
    # Same degree sequence, different graphs: two triangles vs a hexagon.
    two_triangles = make_graph(range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert find_isomorphism(two_triangles, cycle(6)) is None


def test_the_witnesses_onto_relabeled_twins_are_pinned():
    from pgl.sweeps import _relabeled_twin

    # sha256 of the forward maps as the search found them before its
    # candidate test became one mask comparison.
    digest = hashlib.sha256()
    for g in pinned_graphs():
        digest.update(repr(find_isomorphism(g, _relabeled_twin(g)).forward).encode())
    assert digest.hexdigest()[:16] == "e5eea0a5f20c5d4c"


def test_witness_composition_is_transitive():
    g = cycle(5)
    h, _ = relabel(g, 10)
    k = complement(h)
    w1 = find_isomorphism(g, h)
    w2 = find_isomorphism(h, k)
    assert w1 is not None and w2 is not None
    assert verify_iso_witness(compose_witnesses(w1, w2), g, k)


def test_induced_subgraphs_transport():
    g = house()
    h, mapping = relabel(g, 20)
    w = find_isomorphism(g, h)
    assert w is not None
    sub = induced_subgraph(g, (2, 3, 4))
    image = induced_subgraph(h, tuple(w.forward[v] for v in sub.nodes))
    assert is_induced_subgraph(image, h)
    restricted = IsoWitness(
        {v: w.forward[v] for v in sub.nodes},
        {w.forward[v]: v for v in sub.nodes},
    )
    assert verify_iso_witness(restricted, sub, image)


def test_cliques_and_stables_transport():
    g = house()
    h = make_graph([7, 8, 9, 10, 11], [(7, 8), (8, 9), (9, 10), (10, 11), (11, 7), (8, 10)])
    w = find_isomorphism(g, h)
    assert w is not None
    p = graph_parameters(g)
    assert is_clique(h, tuple(w.forward[v] for v in p.max_clique_witness))
    assert is_stable(h, tuple(w.forward[v] for v in p.max_stable_witness))


def test_parameters_transport():
    for g in (house(), cycle(5), complete(4), edgeless(3)):
        h, _ = relabel(g, 50)
        pg, ph = graph_parameters(g), graph_parameters(h)
        assert (pg.alpha, pg.omega, pg.chi) == (ph.alpha, ph.omega, ph.chi)
        assert is_perfect(g) == is_perfect(h)


def test_find_isomorphism_checks_itself_under_python_O():
    out = run_optimized(
        "import sys\n"
        "from pgl import iso, make_graph\n"
        "assert False\n"
        "iso.verify_iso_witness = lambda w, G, H: False\n"
        "G = make_graph([1, 2, 3], [(1, 2)])\n"
        "try:\n"
        "    iso.find_isomorphism(G, G)\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert out == "1 find_isomorphism built a witness that does not verify\n"


def _pairwise_verify_morph(f, g, h):
    """verify_morph by its definition: one adjacency test per pair of G's nodes."""
    from itertools import combinations

    from pgl import vertex_set

    for v in g.nodes:
        if v not in f:
            raise PartialMapError(f"map undefined on vertex {v}")
    if vertex_set(f[v] for v in g.nodes) != h.nodes:
        return False
    return all(g.adjacent(u, v) == h.adjacent(f[u], f[v]) for u, v in combinations(g.nodes, 2))


def _morph_cases(rng):
    """(f, G, H) triples: isomorphisms, tampered and random bijections,
    surjections that merge vertices, images outside H, mistyped and
    missing images."""
    from enum import IntEnum
    from itertools import combinations

    for _ in range(400):
        n = rng.randint(0, 6)
        ids = sorted(rng.sample(range(12), n))
        g = make_graph(ids, [p for p in combinations(ids, 2) if rng.random() < rng.random()])
        targets = sorted(rng.sample(range(20, 40), n))
        perm = dict(zip(g.nodes, rng.sample(targets, n)))
        h = make_graph(targets, [(perm[u], perm[v]) for u, v in g.edges])
        yield perm, g, h
        yield dict(zip(g.nodes, rng.sample(targets, n))), g, h
        if n >= 2:
            u, v = rng.sample(g.nodes, 2)
            yield {**perm, u: perm[v], v: perm[u]}, g, h
            # Two preimages of one vertex: never injective, sometimes onto.
            yield {**perm, u: perm[v]}, g, h
        if n:
            # G with a false twin of u (same neighbours, not adjacent to u)
            # maps onto H by sending the twin to u's image; a true twin does not.
            u = rng.choice(g.nodes)
            twin = 12
            for extra in ((), ((u, twin),)):
                grown = make_graph(g.nodes + (twin,), g.edges + tuple((x, twin) for x in g.neighbors(u)) + extra)
                yield {**perm, twin: perm[u]}, grown, h
                yield {**perm, twin: rng.choice(targets)}, grown, h
            v = rng.choice(g.nodes)
            yield {**perm, v: 99}, g, h
            yield {**perm, v: -1}, g, h
            yield {**perm, v: rng.choice([True, False, float(perm[v]), str(perm[v]), None])}, g, h
            Label = IntEnum("Label", {"X": perm[v]})
            yield {**perm, v: Label.X}, g, h
            partial = dict(perm)
            del partial[rng.choice(g.nodes)]
            yield partial, g, h


def test_bitmask_verify_morph_matches_the_pairwise_definition():
    import random

    outcomes = []
    for f, g, h in _morph_cases(random.Random(1972)):
        try:
            expected = _pairwise_verify_morph(f, g, h)
        except (PartialMapError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                verify_morph(f, g, h)
            assert str(got.value) == str(exc)
            outcomes.append(type(exc).__name__)
            continue
        assert verify_morph(f, g, h) == expected, (f, g, h)
        outcomes.append(expected)
    assert {True, False, "PartialMapError", "ValueError"} <= set(outcomes)


def test_degree_profile_matches_the_neighbor_definition():
    from pgl.iso import _degree_profile
    from pgl.oracles import enumerate_graphs

    for n in range(7):
        for g in enumerate_graphs(n):
            assert _degree_profile(g) == {
                v: (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v)))) for v in g.nodes
            }


def test_verify_morph_success_path_reads_only_rows(monkeypatch):
    from pgl import Graph, core

    def refuse(*args):
        raise AssertionError("called on the success path")

    g = house()
    h, mapping = relabel(g, 20)
    monkeypatch.setattr(core, "vertex_set", refuse)
    monkeypatch.setattr(Graph, "adjacent", refuse)
    assert verify_morph(mapping, g, h)
    assert not verify_morph({**mapping, 1: 22, 3: 21}, g, h)
