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

from conftest import complete, cycle, edgeless, house, run_optimized


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


@pytest.mark.parametrize("bad", [2.0, "2", True, None])
def test_expand_rejects_a_multiplicity_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match=f"multiplicity for vertex 2 must be an int, got {bad!r}"):
        expand(make_graph([1, 2], [(1, 2)]), {1: 1, 2: bad})


def test_expand_refuses_a_multiplicity_key_that_only_equals_a_vertex():
    # True equals 1, so a lookup of vertex 1 used to find it and build copies.
    for key in (True, 1.0):
        with pytest.raises(ValueError, match=f"vertex ids must be non-negative integers, got {key!r}"):
            expand(house(), {key: 2, 2: 1, 3: 1, 4: 1, 5: 1})


def test_verify_expansion_refuses_a_back_key_that_only_equals_a_vertex():
    g = house()
    with pytest.raises(ValueError, match="vertex ids must be non-negative integers, got True"):
        verify_expansion(g, g, {True: 1, 2: 2, 3: 3, 4: 4, 5: 5})


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
    # Parts are sorted and deduplicated first; an empty part takes no ids.
    assert mk_disj(((3, 1, 3), (), (0,))) == (((4, 5), (), (6,)), {4: (1, 0), 5: (3, 0), 6: (0, 2)})


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
    from enum import IntEnum
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
            # Mistyped and negative origins raise ValueError; an IntEnum
            # member equal to the right origin is an int and passes.
            x = rng.choice(h.nodes)
            for bad in (True, False, -1, -w.back[x], float(w.back[x]), str(w.back[x]), None):
                yield g, h, {**w.back, x: bad}
            Origin = IntEnum("Origin", {"V": w.back[x]})
            yield g, h, {**w.back, x: Origin.V}
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
        except (PartialMapError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                verify_expansion(g, h, back)
            assert str(got.value) == str(exc)
            outcomes.append(type(exc).__name__)
            continue
        assert verify_expansion(g, h, back) == expected, (g, h, back)
        outcomes.append(expected)
    assert {True, False, "PartialMapError", "ValueError"} <= set(outcomes)


# Reference copies of the pair-list constructions that the row builders
# replaced: each lists its edges as pairs and canonicalizes them through
# make_graph.


def _pairwise_replicate(g, a):
    from pgl.constructions import ReplicationWitness

    clone = g.nodes[-1] + 1
    edges = list(g.edges)
    edges.append((a, clone))
    edges.extend((x, clone) for x in g.neighbors(a))
    return make_graph(g.nodes + (clone,), edges), ReplicationWitness(a, clone)


def _pairwise_expand(g, mult):
    from itertools import combinations

    from pgl.constructions import ExpansionWitness

    nxt = g.nodes[-1] + 1 if g.nodes else 0
    tags = {}
    group = {}
    for v in g.nodes:
        ids = []
        for i in range(mult[v]):
            tags[nxt] = (v, i)
            ids.append(nxt)
            nxt += 1
        group[v] = ids
    edges = []
    for v in g.nodes:
        edges.extend(combinations(group[v], 2))
    for u, v in g.edges:
        edges.extend((x, y) for x in group[u] for y in group[v])
    return make_graph(tags, edges), ExpansionWitness({x: t[0] for x, t in tags.items()}, tags)


def _pairwise_separated_graph(g):
    from itertools import combinations

    from pgl import max_stable_sets, vertex_set
    from pgl.constructions import Separation

    stables = max_stable_sets(g)
    base = induced_subgraph(g, union_over(stables))
    parts, tags = mk_disj(stables)
    fresh = vertex_set(tags)
    edges = []
    for x, y in combinations(fresh, 2):
        ox, ix = tags[x]
        oy, iy = tags[y]
        if ox == oy:
            if ix != iy:
                edges.append((x, y))
        elif base.adjacent(ox, oy):
            edges.append((x, y))
    back = {x: t[0] for x, t in tags.items()}
    return Separation(base, make_graph(fresh, edges), back, stables, parts)


def _assert_constructions_match(g, vectors):
    # Each reference graph comes from make_graph, so equal node and edge
    # tuples make the row-built graph canonical, and its kept rows must be
    # the ones the reference computes from its edges.
    for mult in vectors:
        h, w = expand(g, mult)
        ref, rw = _pairwise_expand(g, mult)
        assert (h, w, h.bit_adjacency) == (ref, rw, ref.bit_adjacency), (g, mult)
    for a in g.nodes:
        h, w = replicate(g, a)
        ref, rw = _pairwise_replicate(g, a)
        assert (h, w, h.bit_adjacency) == (ref, rw, ref.bit_adjacency), (g, a)
    if g.n:
        sep = build_separated_graph(g)
        ref = _pairwise_separated_graph(g)
        assert sep == ref, g
        assert sep.separated.bit_adjacency == ref.separated.bit_adjacency, g


def test_row_built_constructions_match_the_pair_lists_exhaustively():
    from itertools import product

    from pgl import enumerate_graphs

    for n in range(7):
        for g in enumerate_graphs(n):
            vectors = [dict(zip(g.nodes, v)) for v in product(range(1, 4), repeat=n)] if n <= 4 else []
            _assert_constructions_match(g, vectors)


def test_row_built_constructions_match_the_pair_lists_on_sparse_ids():
    import random
    from itertools import combinations

    rng = random.Random(31)
    for _ in range(1500):
        ids = sorted(rng.sample(range(60), rng.randint(1, 11)))
        p = rng.random()
        g = make_graph(ids, [e for e in combinations(ids, 2) if rng.random() < p])
        vectors = [{v: rng.randint(1, 3) for v in ids} for _ in range(2)]
        _assert_constructions_match(g, vectors)


@pytest.mark.parametrize("symmetric", [True, False])
def test_expand_rejects_rows_with_a_flipped_bit(monkeypatch, symmetric):
    import random

    from pgl import Graph, enumerate_graphs
    from pgl import constructions

    rng = random.Random(7)
    honest = constructions._copy_rows
    built = []

    def tampered(g, groups, size):
        rows = honest(g, groups, size)
        i, j = rng.sample(range(size), 2)
        rows[i] ^= 1 << j
        if symmetric:
            rows[j] ^= 1 << i
        built.append(rows)
        return rows

    monkeypatch.setattr(constructions, "_copy_rows", tampered)
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            mult = {v: rng.randint(1, 3) for v in g.nodes}
            if sum(mult.values()) < 2:
                continue
            with pytest.raises(AssertionError, match="not an expansion"):
                expand(g, mult)
            # The same rows, handed to the checker directly.
            h, w = _pairwise_expand(g, mult)
            bad = Graph(h.nodes, tuple(built[-1]))
            assert not verify_expansion(g, bad, w.back)


def _pairwise_verify_replication(g, w, h):
    """verify_replication by its definition: one adjacency test per pair."""
    from itertools import combinations

    from pgl import vertex_set

    a, clone = w.base, w.clone
    if not g.has_node(a) or g.has_node(clone):
        return False
    if h.nodes != vertex_set(g.nodes + (clone,)):
        return False
    if not h.adjacent(a, clone):
        return False
    if any(g.adjacent(u, v) != h.adjacent(u, v) for u, v in combinations(g.nodes, 2)):
        return False
    return all(x == a or g.adjacent(x, a) == h.adjacent(x, clone) for x in g.nodes)


def _outcome(check, *args):
    """What check returns on args, or the name of the exception it raises."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc).__name__


def test_bitmask_verify_replication_matches_the_pairwise_definition():
    import random
    from itertools import combinations

    from pgl.constructions import ReplicationWitness

    rng = random.Random(2025)
    outcomes = []
    for _ in range(400):
        ids = sorted(rng.sample(range(12), rng.randint(1, 7)))
        g = make_graph(ids, [e for e in combinations(ids, 2) if rng.random() < 0.5])
        a = rng.choice(ids)
        h, w = replicate(g, a)
        # The clone at a free id below the largest, then one pair flipped.
        clone = rng.choice([v for v in range(ids[-1] + 2) if v not in ids])
        moved = make_graph(ids + [clone], list(g.edges) + [(a, clone)] + [(x, clone) for x in g.neighbors(a)])
        x, y = rng.sample(moved.nodes, 2)
        flipped = make_graph(moved.nodes, set(moved.edges) ^ {(min(x, y), max(x, y))})
        other = rng.choice(ids)
        # A free id below the largest, when there is one.
        below = next((v for v in range(ids[-1]) if v not in ids), clone)
        cases = [
            (w, h),
            (ReplicationWitness(a, clone), moved),
            (ReplicationWitness(a, clone), flipped),
            (ReplicationWitness(other, clone), moved),
            (ReplicationWitness(a, ids[0]), h),
            (ReplicationWitness(ids[-1] + 5, clone), moved),
            (ReplicationWitness(a, clone), h),
            (ReplicationWitness(a, below), h),
            (ReplicationWitness(a, True), h),
            (ReplicationWitness(a, -1), h),
        ]
        for cw, ch in cases:
            expected = _outcome(_pairwise_verify_replication, g, cw, ch)
            assert _outcome(verify_replication, g, cw, ch) == expected, (g, cw, ch)
            outcomes.append(expected)
    assert outcomes.count(True) > 400 and outcomes.count(False) > 400
    # A bool or negative clone that is no node is refused as an id.
    assert outcomes.count("ValueError") > 400


def test_expand_checks_itself_under_python_O():
    out = run_optimized(
        "import sys\n"
        "from pgl import constructions, make_graph\n"
        "assert False\n"
        "constructions.verify_expansion = lambda G, H, back: False\n"
        "try:\n"
        "    constructions.expand(make_graph([1, 2], [(1, 2)]), {1: 2, 2: 1})\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert out == "1 expand built a graph that is not an expansion\n"


def test_verify_expansion_success_path_reads_only_rows(monkeypatch):
    from pgl import Graph, constructions, core

    def refuse(*args):
        raise AssertionError("called on the success path")

    g = house()
    h, w = expand(g, {1: 2, 2: 1, 3: 3, 4: 1, 5: 2})
    for module in (core, constructions):
        monkeypatch.setattr(module, "vertex_set", refuse)
    monkeypatch.setattr(Graph, "adjacent", refuse)
    assert verify_expansion(g, h, w.back)
    assert not verify_expansion(g, h, {**w.back, h.nodes[0]: 3})


def _separation_by_vertex_tuples(g):
    """build_separated_graph by its vertex-tuple route: max_stable_sets, union_over, induced_subgraph, mk_disj.

    Each copy's row holds the other copies of its origin and every copy of
    the origin's base neighbours.
    """
    from pgl import Graph, max_stable_sets
    from pgl.constructions import Separation

    stables = max_stable_sets(g)
    base = induced_subgraph(g, union_over(stables))
    parts, tags = mk_disj(stables)
    fresh = tuple(tags)
    copies = dict.fromkeys(base.nodes, 0)
    for k, x in enumerate(fresh):
        copies[tags[x][0]] |= 1 << k
    closed = {v: copies[v] | sum(copies[u] for u in base.neighbors(v)) for v in base.nodes}
    rows = tuple(closed[tags[x][0]] & ~(1 << k) for k, x in enumerate(fresh))
    return Separation(base, Graph(fresh, rows), {x: t[0] for x, t in tags.items()}, stables, parts)


def _separation_graphs():
    """Every graph with 1 <= n <= 5, 300 seeded G(7, p), and the separation cases of tools/bench_layers.py."""
    import importlib.util
    import os
    import random

    from pgl import enumerate_graphs

    for n in range(1, 6):
        yield from enumerate_graphs(n)
    rng = random.Random(34)
    for k in range(300):
        p = (0.2, 0.5, 0.8)[k % 3]
        yield make_graph(range(7), [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < p])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("bench_layers", os.path.join(root, "tools", "bench_layers.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for case in bench.CASES:
        if case.name == "build_separated_graph" and case.family in ("matching", "sparse-bipartite"):
            (edges,) = bench.edge_lists(case)
            yield make_graph(range(case.n), edges)


def test_mask_built_separation_matches_the_vertex_tuple_route():
    sizes = []
    for g in _separation_graphs():
        sep = build_separated_graph(g)
        ref = _separation_by_vertex_tuples(g)
        assert sep == ref, g
        assert sep.separated.bit_adjacency == ref.separated.bit_adjacency, g
        assert list(sep.back) == list(ref.back), g
        sizes.append(sep.separated.n)
    assert len(sizes) == 1099 + 300 + 3
    assert sizes[-3:] == [2048, 10240, 1400]


def test_separation_lists_its_stable_sets_through_max_stable_sets(monkeypatch):
    # A tracer that rebinds the public functions in every pgl namespace
    # sees the separation's listing, as it sees the sweeps' own.
    import pgl.constructions
    from pgl import max_stable_sets
    from pgl.constructions import SEPARATION_MAX_VERTICES

    calls = []
    monkeypatch.setattr(pgl.constructions, "max_stable_sets", lambda *args: calls.append(args) or max_stable_sets(*args))
    assert build_separated_graph(cycle(5)).stable_sets == max_stable_sets(cycle(5))
    assert calls == [(cycle(5), SEPARATION_MAX_VERTICES)]


def test_separate_writes_what_the_vertex_tuple_route_gives(tmp_path, capsys):
    import json

    from pgl import emit_graph, parse_graph
    from pgl.cli import run_command

    def graph_json(g):
        return {"nodes": list(g.nodes), "edges": [list(e) for e in g.edges]}

    path = tmp_path / "g.col"
    checked = 0
    for g in _separation_graphs():
        # Five million edges of JSON for the ten-edge matching: the
        # constructions are compared on it above.
        if g.n == 20:
            continue
        payload = emit_graph(g, "dimacs").payload
        path.write_text(payload)
        ref = _separation_by_vertex_tuples(parse_graph(emit_graph(g, "dimacs")))
        doc = {
            "base": graph_json(ref.base),
            "separated": graph_json(ref.separated),
            "back": {str(x): origin for x, origin in sorted(ref.back.items())},
            "stable_sets": [list(part) for part in ref.stable_sets],
            "disjoint_parts": [list(part) for part in ref.disjoint_parts],
        }
        assert run_command(["separate", "--in", str(path)]) == 0
        assert capsys.readouterr() == (json.dumps(doc, indent=2) + "\n", ""), g
        checked += 1
    assert checked == 1099 + 300 + 2
