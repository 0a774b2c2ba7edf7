"""Replication, expansion, disjoint tagging and the separation construction."""

import pytest

from pgl import (
    EmptyGraphError,
    IsoWitness,
    PartialMapError,
    VertexNotFoundError,
    ZeroMultiplicityError,
    build_separated_graph,
    chromatic_number,
    clique_number,
    expand,
    find_isomorphism,
    graph_parameters,
    induced_subgraph,
    is_nice,
    is_perfect,
    is_stable,
    make_graph,
    mk_disj,
    replicate,
    stable_number,
    union_over,
    verify_expansion,
    verify_iso_witness,
    verify_replication,
)

from conftest import complete, cycle, edgeless, house


def test_replicate_pentagon_vertex():
    g2, w = replicate(cycle(5), 4)
    assert g2.n == 6
    assert w.base == 4 and w.clone == 6
    assert g2.neighbors(6) == (3, 4, 5)
    assert is_nice(g2)
    g3, _ = replicate(g2, 2)
    assert not is_nice(g3)
    assert (lambda p: (p.omega, p.chi))(graph_parameters(g3)) == (3, 4)


def test_replicate_single_vertex_gives_edge():
    g, w = replicate(make_graph([1]), 1)
    assert g == make_graph([1, 2], [(1, 2)])
    assert verify_replication(make_graph([1]), w, g)


def test_replicate_missing_vertex():
    with pytest.raises(VertexNotFoundError):
        replicate(cycle(4), 9)


def test_verify_replication_accepts_constructor_output():
    for g in (cycle(5), house(), complete(3), edgeless(2)):
        for a in g.nodes:
            h, w = replicate(g, a)
            assert verify_replication(g, w, h)


def test_verify_replication_missing_clone_edge():
    g = cycle(4)
    h, w = replicate(g, 1)
    broken = make_graph(h.nodes, [e for e in h.edges if e != (1, 5)])
    assert not verify_replication(g, w, broken)


def test_verify_replication_extra_neighbor():
    g = cycle(4)
    h, w = replicate(g, 1)
    # Clone picks up vertex 3, which is not adjacent to the base.
    mutated = make_graph(h.nodes, list(h.edges) + [(3, 5)])
    assert not verify_replication(g, w, mutated)


def test_replication_embeds_source_via_swap():
    g = house()
    h, w = replicate(g, 2)
    rest = induced_subgraph(h, tuple(v for v in h.nodes if v != w.base))
    swap = {v: v for v in g.nodes}
    swap[w.base] = w.clone
    back = {swap[v]: v for v in swap}
    assert verify_iso_witness(IsoWitness(swap, back), g, rest)


def test_expand_square_multiplicities():
    g = cycle(4)
    h, w = expand(g, {1: 2, 2: 3, 3: 4, 4: 1})
    assert h.n == 10
    assert h.m == 34
    assert verify_expansion(g, h, w.back)
    assert clique_number(h) == 7 and chromatic_number(h) == 7
    assert sorted(w.origin_tags[x] for x in h.nodes) == sorted(
        (v, i) for v in g.nodes for i in range({1: 2, 2: 3, 3: 4, 4: 1}[v])
    )


def test_expand_identity_multiplicities_is_isomorphic():
    g = house()
    h, w = expand(g, {v: 1 for v in g.nodes})
    assert verify_expansion(g, h, w.back)
    found = find_isomorphism(g, h)
    assert found is not None
    # The backward map itself is an isomorphism in this case.
    forward = {origin: x for x, origin in w.back.items()}
    assert verify_iso_witness(IsoWitness(forward, dict(w.back)), g, h)


def test_expand_single_vertex_to_triangle():
    h, _ = expand(make_graph([1]), {1: 3})
    assert h.n == 3 and h.m == 3


def test_expand_rejects_bad_multiplicities():
    with pytest.raises(ZeroMultiplicityError):
        expand(make_graph([1, 2]), {1: 0, 2: 1})
    with pytest.raises(PartialMapError):
        expand(make_graph([1, 2]), {1: 2})


def test_verify_expansion_trivial_identity():
    g = house()
    assert verify_expansion(g, g, {v: v for v in g.nodes})


def test_verify_expansion_rejects_wrong_back_map():
    g = cycle(4)
    h, w = expand(g, {1: 2, 2: 1, 3: 1, 4: 1})
    bad = dict(w.back)
    first = h.nodes[0]
    bad[first] = 3 if bad[first] != 3 else 1
    assert not verify_expansion(g, h, bad)


def test_mk_disj_tags_and_parts():
    parts, tags = mk_disj(((1, 2), (2, 3)))
    assert parts == ((4, 5), (6, 7))
    assert tags == {4: (1, 0), 5: (2, 0), 6: (2, 1), 7: (3, 1)}
    assert mk_disj(()) == ((), {})


def test_mk_disj_separates_pentagon_stable_sets():
    from pgl import max_stable_sets

    parts, tags = mk_disj(max_stable_sets(cycle(5)))
    assert len(parts) == 5
    assert all(len(p) == 2 for p in parts)
    assert len(tags) == 10
    flat = [x for p in parts for x in p]
    assert len(set(flat)) == 10


def test_separation_of_square():
    sep = build_separated_graph(cycle(4))
    assert sep.stable_sets == ((1, 3), (2, 4))
    assert sep.base == cycle(4)
    assert sep.separated.nodes == (5, 6, 7, 8)
    assert sep.separated.edges == ((5, 7), (5, 8), (6, 7), (6, 8))
    assert sorted(sep.back.items()) == [(5, 1), (6, 3), (7, 2), (8, 4)]
    assert len(set(sep.back.values())) == 4


def test_separation_of_pentagon_doubles_every_vertex():
    sep = build_separated_graph(cycle(5))
    assert sep.separated.n == 10
    counts = {}
    for origin in sep.back.values():
        counts[origin] = counts.get(origin, 0) + 1
    assert counts == {v: 2 for v in range(1, 6)}
    assert verify_expansion(sep.base, sep.separated, sep.back)


def test_separation_of_single_edge():
    sep = build_separated_graph(complete(2))
    assert sep.stable_sets == ((1,), (2,))
    assert sep.separated == make_graph([3, 4], [(3, 4)])


def test_separation_rejects_empty_graph():
    with pytest.raises(EmptyGraphError):
        build_separated_graph(make_graph([]))


def test_separation_invariants_in_detail():
    for g in (cycle(4), cycle(5), house(), complete(3), edgeless(3)):
        sep = build_separated_graph(g)
        # Backward image of the separated nodes is exactly the base nodes.
        assert sorted(set(sep.back.values())) == list(sep.base.nodes)
        # Expansion relation holds.
        assert verify_expansion(sep.base, sep.separated, sep.back)
        # Parts are pairwise disjoint maximum stable sets covering everything.
        assert union_over(sep.disjoint_parts) == sep.separated.nodes
        alpha = stable_number(sep.separated)
        seen = set()
        for part in sep.disjoint_parts:
            assert not seen & set(part)
            seen |= set(part)
            assert is_stable(sep.separated, part)
            assert len(part) == alpha
        # The backward map is injective on every maximum stable set and
        # sends it to a stable set of the base.
        from pgl import max_stable_sets

        for part in max_stable_sets(sep.separated):
            image = [sep.back[x] for x in part]
            assert len(set(image)) == len(image)
            assert is_stable(sep.base, image)


def test_replication_preserves_perfection_on_small_graphs():
    for g in (house(), complete(3), cycle(4), edgeless(3)):
        assert is_perfect(g)
        for a in g.nodes:
            h, _ = replicate(g, a)
            assert is_perfect(h)


def test_expansion_preserves_perfection_spot_checks():
    g = cycle(4)
    for mult in ({1: 2, 2: 3, 3: 4, 4: 1}, {1: 3, 2: 3, 3: 3, 4: 3}, {1: 1, 2: 2, 3: 1, 4: 2}):
        h, _ = expand(g, mult)
        assert is_perfect(h)


def test_expand_rejects_multiplicities_for_unknown_vertices():
    with pytest.raises(VertexNotFoundError, match="vertex 99"):
        expand(complete(2), {1: 2, 2: 1, 99: 3})
    with pytest.raises(VertexNotFoundError):
        expand(make_graph([]), {0: 1})


def _pairwise_verify_expansion(g, h, back):
    """verify_expansion by its definition: one adjacency test per pair of H's nodes."""
    from itertools import combinations

    from pgl import vertex_set

    for x in h.nodes:
        if x not in back:
            raise PartialMapError(f"backward map undefined on vertex {x}")
    if vertex_set(back[x] for x in h.nodes) != g.nodes:
        return False
    for x, y in combinations(h.nodes, 2):
        bx, by = back[x], back[y]
        if bx == by:
            if not h.adjacent(x, y):
                return False
        elif g.adjacent(bx, by) != h.adjacent(x, y):
            return False
    return True


def _expansion_cases(rng):
    """(G, H, back) triples: constructor output, separated graphs, and tampered copies."""
    from itertools import combinations

    for _ in range(150):
        n = rng.randint(0, 6)
        pairs = list(combinations(range(1, n + 1), 2))
        g = make_graph(range(1, n + 1), [p for p in pairs if rng.random() < rng.random()])
        h, w = expand(g, {v: rng.randint(1, 3) for v in g.nodes})
        yield g, h, dict(w.back)
        if n:
            sep = build_separated_graph(g)
            yield sep.base, sep.separated, dict(sep.back)
        if h.n >= 2:
            x, y = rng.sample(h.nodes, 2)
            flipped = set(h.edges) ^ {(min(x, y), max(x, y))}
            yield g, make_graph(h.nodes, flipped), dict(w.back)
        if n >= 2:
            moved = dict(w.back)
            x = rng.choice(h.nodes)
            moved[x] = rng.choice([v for v in g.nodes if v != moved[x]])
            yield g, h, moved
            # Every copy of one origin renamed to another: back is not onto.
            gone = rng.choice(g.nodes)
            other = rng.choice([v for v in g.nodes if v != gone])
            yield g, h, {x: other if o == gone else o for x, o in w.back.items()}
        # An origin with no copies, and an origin outside G.
        yield make_graph(g.nodes + (n + 1,), g.edges), h, dict(w.back)
        if h.n:
            yield g, h, {**w.back, h.nodes[-1]: n + 7}
            # A missing key wins over every other defect.
            partial = {x: n + 7 for x in h.nodes}
            del partial[rng.choice(h.nodes)]
            yield g, h, partial


def test_bitmask_verify_expansion_matches_the_pairwise_definition():
    import random

    outcomes = []
    for g, h, back in _expansion_cases(random.Random(2024)):
        try:
            expected = _pairwise_verify_expansion(g, h, back)
        except PartialMapError:
            with pytest.raises(PartialMapError):
                verify_expansion(g, h, back)
            outcomes.append("partial")
            continue
        assert verify_expansion(g, h, back) == expected, (g, h, back)
        outcomes.append(expected)
    assert {True, False, "partial"} <= set(outcomes)
