"""Brute-force oracles: subset-enumeration parameters, Berge recognition,
graph streams."""

import pytest

from pgl import (
    GraphParameters,
    TooLargeError,
    complement,
    enumerate_graphs,
    find_odd_hole_or_antihole,
    graph_parameters,
    is_berge,
    is_nice,
    is_perfect,
    is_valid_coloring,
    make_graph,
    oracle_parameters,
)

from conftest import complete, cycle, edgeless, house, joined_double_pentagon, nice_but_imperfect, path


def test_oracle_parameters_pentagon():
    p = oracle_parameters(cycle(5))
    assert (p.alpha, p.omega, p.chi) == (2, 2, 3)


def test_oracle_parameters_trivial():
    p = oracle_parameters(complete(4))
    assert (p.alpha, p.omega, p.chi) == (1, 4, 4)
    p = oracle_parameters(make_graph([]))
    assert (p.alpha, p.omega, p.chi) == (0, 0, 0)


def test_oracle_parameters_joined_double_pentagon():
    # alpha, omega, chi and the clique and stable witnesses are the answer
    # of _product_oracle_parameters below, which spends about 16 s on this
    # graph: 11 million assignments fail before chi = 6.  The coloring is
    # peeled off the chi levels: color 0 is {1, 3}, the first maximal
    # stable set by mask, and color 1 only {4}, the part of {1, 4} still
    # uncolored, which leaves {2, 5} and the second pentagon (chi 4).
    assert oracle_parameters(joined_double_pentagon()) == GraphParameters(
        alpha=2,
        omega=4,
        chi=6,
        max_clique_witness=(1, 2, 6, 7),
        max_stable_witness=(1, 3),
        chi_witness={1: 0, 2: 2, 3: 0, 4: 1, 5: 2, 6: 3, 7: 5, 8: 3, 9: 4, 10: 5},
    )


def _assert_chi_witness(g, p):
    """The chi witness is a proper coloring that uses exactly the colors 0..chi-1."""
    assert is_valid_coloring(g, p.chi_witness), g
    assert sorted(p.chi_witness) == list(g.nodes), g
    assert set(p.chi_witness.values()) == set(range(p.chi)), g


def _seeded_graphs():
    """Twenty seeded G(n, p) graphs for each n = 7..16, ten at p = 0.2 and ten at 0.5."""
    import random
    from itertools import combinations

    rng = random.Random(16)
    for n in range(7, 17):
        for p in (0.2, 0.5):
            for _ in range(10):
                yield make_graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < p])


def test_oracle_parameters_reproduce_the_product_order_walk_answers():
    # SHA-256 of (alpha, omega, chi, clique witness, stable witness) over
    # every graph with n <= 6 and the seeded graphs, as the oracle answered
    # them when chi came from a walk of the assignments in product order.
    import hashlib

    graphs = [g for n in range(7) for g in enumerate_graphs(n)] + list(_seeded_graphs())
    assert len(graphs) == 34_068
    rows = []
    for g in graphs:
        p = oracle_parameters(g)
        _assert_chi_witness(g, p)
        rows.append((p.alpha, p.omega, p.chi, p.max_clique_witness, p.max_stable_witness))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "06b1216378b3ecdf741fcfdb939dbcb288e85a3955cfa0d319850728f48a1c3a"
    )


def _product_oracle_parameters(g):
    """oracle_parameters as it was before it moved to bitmask rows: every
    vertex pair through G.adjacent, and chi from every assignment in
    product order."""
    from itertools import combinations, product

    n = g.n
    nodes = g.nodes
    best_stable = ()
    best_clique = ()
    for r in range(1, n + 1):
        for S in combinations(nodes, r):
            pairs = list(combinations(S, 2))
            if len(S) > len(best_stable) and all(not g.adjacent(u, v) for u, v in pairs):
                best_stable = S
            if len(S) > len(best_clique) and all(g.adjacent(u, v) for u, v in pairs):
                best_clique = S
    index = g.index
    epairs = [(index[u], index[v]) for u, v in g.edges]
    chi = 0
    chi_witness = {}
    for k in range(0, n + 1):
        done = False
        for assign in product(range(k), repeat=n):
            if all(assign[i] != assign[j] for i, j in epairs):
                chi = k
                chi_witness = {nodes[i]: assign[i] for i in range(n)}
                done = True
                break
        if done or n == 0:
            break
    return GraphParameters(
        len(best_stable), len(best_clique), chi, best_clique, best_stable, chi_witness
    )


def test_oracle_parameters_match_the_product_enumeration():
    import random
    from dataclasses import replace
    from itertools import combinations

    graphs = [g for n in range(6) for g in enumerate_graphs(n)]
    graphs += list(enumerate_graphs(6))[::8]
    rng = random.Random(1961)
    for n, count in ((7, 20), (8, 20), (9, 10)):
        for _ in range(count):
            ids = sorted(rng.sample(range(40), n))
            graphs.append(make_graph(ids, [e for e in combinations(ids, 2) if rng.random() < 0.5]))
    graphs += [cycle(5), cycle(7), complement(cycle(7)), complement(cycle(9))]
    for g in graphs:
        p = oracle_parameters(g)
        assert replace(p, chi_witness=None) == replace(_product_oracle_parameters(g), chi_witness=None), g
        _assert_chi_witness(g, p)


def _combinations_alpha_omega(g):
    """alpha, omega and their witnesses as oracle_parameters scanned them
    before it read them off the stable-set indicators: the first stable
    set and the first clique of each size in combinations order, each
    subset tested with one mask AND per member against the rows."""
    from itertools import combinations

    n, adj = g.n, g.bit_adjacency
    closed = [a | 1 << i for i, a in enumerate(adj)]
    best_stable = best_clique = ()
    for r in range(1, n + 1):
        want_stable = len(best_stable) == r - 1
        want_clique = len(best_clique) == r - 1
        if not (want_stable or want_clique):
            break
        for S in combinations(range(n), r):
            mask = 0
            for i in S:
                mask |= 1 << i
            if want_stable and all(not adj[i] & mask for i in S):
                best_stable, want_stable = S, False
            if want_clique and all(closed[i] & mask == mask for i in S):
                best_clique, want_clique = S, False
            if not (want_stable or want_clique):
                break
    nodes = g.nodes
    return len(best_stable), len(best_clique), tuple(nodes[i] for i in best_clique), tuple(nodes[i] for i in best_stable)


def test_oracle_witnesses_match_the_combinations_scan_past_the_product_reference():
    import random
    from itertools import combinations

    rng = random.Random(1912)
    for n in range(10, 17):
        for p in (0.2, 0.8):
            for _ in range(3):
                ids = sorted(rng.sample(range(100), n))
                g = make_graph(ids, [e for e in combinations(ids, 2) if rng.random() < p])
                q = oracle_parameters(g)
                got = (q.alpha, q.omega, q.max_clique_witness, q.max_stable_witness)
                assert got == _combinations_alpha_omega(g), (g.nodes, g.edges)


def test_the_oracles_import_nothing_of_the_engines_they_check():
    import ast

    import pgl.oracles

    with open(pgl.oracles.__file__) as fh:
        tree = ast.parse(fh.read())
    # (module, name) of each import from pgl; name is None for a whole module.
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.name.removeprefix("pgl."), None) for a in node.names if a.name.startswith("pgl.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pgl"):
            module = (node.module or "").removeprefix("pgl").lstrip(".")
            imported += [(module, a.name) if module else (a.name, None) for a in node.names]
    assert ("core", "Graph") in imported and ("invariants", "GraphParameters") in imported
    engines = {"pipeline", "constructions", "iso", "sweeps"}
    assert [i for i in imported if i[0] in engines or i[0] == "invariants" and i[1] != "GraphParameters"] == []


def test_oracle_witnesses_validate():
    for g in (cycle(5), house(), path(4)):
        p = oracle_parameters(g)
        assert len(p.max_stable_witness) == p.alpha
        assert len(p.max_clique_witness) == p.omega
        assert is_valid_coloring(g, p.chi_witness)


def test_oracle_agreement_on_named_graphs():
    for g in (cycle(5), cycle(6), house(), path(5), complete(4), edgeless(4), nice_but_imperfect()):
        p = graph_parameters(g)
        q = oracle_parameters(g)
        assert (p.alpha, p.omega, p.chi) == (q.alpha, q.omega, q.chi)


def test_pentagon_is_its_own_hole():
    kind, cyc = find_odd_hole_or_antihole(cycle(5))
    assert kind == "hole"
    assert sorted(cyc) == [1, 2, 3, 4, 5]
    assert cyc[0] == 1


def test_antihole_in_complement_of_seven_cycle():
    g = complement(cycle(7))
    kind, cyc = find_odd_hole_or_antihole(g)
    assert kind == "antihole"
    assert len(cyc) == 7


def test_house_has_no_hole():
    assert find_odd_hole_or_antihole(house()) is None
    assert is_berge(house())


def test_berge_examples():
    assert not is_berge(cycle(5))
    assert not is_berge(cycle(7))
    assert not is_berge(complement(cycle(7)))
    assert is_berge(cycle(6))
    assert is_berge(complete(5))
    # Bipartite graphs are Berge.
    bipartite = make_graph(range(1, 7), [(1, 4), (1, 5), (2, 6), (3, 5)])
    assert is_berge(bipartite)


def test_nice_but_imperfect_graph_is_detected():
    g = nice_but_imperfect()
    assert is_nice(g)
    assert not is_perfect(g)
    assert not is_berge(g)
    kind, cyc = find_odd_hole_or_antihole(g)
    assert kind == "hole" and len(cyc) == 5


def test_perfection_by_definition():
    from pgl.oracles import ORACLE_MAX_N, is_perfect_by_definition

    assert is_perfect_by_definition(house())
    assert not is_perfect_by_definition(cycle(5))
    assert not is_perfect_by_definition(nice_but_imperfect())
    assert is_perfect_by_definition(make_graph([]))
    with pytest.raises(TooLargeError):
        is_perfect_by_definition(edgeless(ORACLE_MAX_N + 1))


def test_no_subset_masks_past_sixteen_vertices_stay_after_a_call():
    import tracemalloc

    from pgl import oracles

    # The masks of 20 vertices hold 5 MiB; only those of n <= 16 are kept.
    g = edgeless(oracles.ORACLE_MAX_N)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert oracle_parameters(g).chi == 1
        assert oracles.is_perfect_by_definition(g)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024
    assert oracles._SHARED_N == 16 and oracles._subset_masks(16) is oracles._subset_masks(16)
    assert sorted(oracles._SHARED_MASKS)[-1] == 16


def test_each_subset_table_marks_exactly_the_subsets_of_its_mask():
    from pgl import oracles

    for mask in range(1 << 8):
        assert oracles._table(mask) == sum(1 << s for s in range(1 << 8) if s & mask == s), mask


def _gate_graphs():
    """Every graph with n <= 6, then 300 seeded G(n, 1/2) for each n = 7..10."""
    for n in range(7):
        yield from enumerate_graphs(n)
    for n in range(7, 11):
        yield from enumerate_graphs(n, "random", seed=33, count=300)


def _table_gated_answers(monkeypatch, table_max_n):
    """The indicators, levels, parameters and Berge answers of the gate graphs with the tables used up to table_max_n."""
    from pgl import oracles
    from pgl.core import _complement_rows

    monkeypatch.setattr(oracles, "_TABLE_MAX_N", table_max_n)
    monkeypatch.setattr(oracles, "_TABLES", {})
    answers = []
    for g in _gate_graphs():
        masks = oracles._subset_masks(g.n)
        both = (g.bit_adjacency, _complement_rows(g.bit_adjacency))
        answers.append((
            [oracles._stable_indicator(rows, masks[0]) for rows in both],
            [oracles._two_regular_indicator(rows, masks) for rows in both],
            list(oracles._definition_levels(g)),
            oracle_parameters(g),
            find_odd_hole_or_antihole(g),
        ))
    return answers


def test_the_subset_tables_give_the_answers_of_the_loops(monkeypatch):
    # With the gate at 0 every reader runs its loops; at 10 every graph
    # here goes through the tables.
    loops = _table_gated_answers(monkeypatch, 0)
    tables = _table_gated_answers(monkeypatch, 10)
    assert len(loops) == 33_868 + 4 * 300
    for a, b in zip(loops, tables, strict=True):
        assert a == b


def test_the_subset_tables_stay_within_their_bound_after_sweeps(monkeypatch):
    from pgl import oracles
    from pgl.sweeps import sweep

    monkeypatch.setattr(oracles, "_TABLES", {})
    props = ("wpgt", "berge", "oracle-agreement", "separation")
    for n in range(oracles._TABLE_MAX_N + 1):
        assert sweep(props, n, "random", seed=n, count=20).ok
    kept = dict(oracles._TABLES)
    assert oracles._TABLE_MAX_N == 8
    assert 0 < len(kept) <= 1 << oracles._TABLE_MAX_N
    assert all(0 <= mask < 1 << oracles._TABLE_MAX_N for mask in kept)
    # Past the gate the loops run, and no table is added.
    assert sweep(props, oracles._TABLE_MAX_N + 1, "random", count=20).ok
    assert oracles._TABLES == kept


def test_complement_levels_come_off_the_swapped_indicators():
    # The wpgt sweep reads the complement's levels off G's own indicators.
    from pgl.oracles import _definition_levels

    for n in range(6):
        for g in enumerate_graphs(n):
            levels = list(_definition_levels(g))
            assert levels == [next(_definition_levels(g)), next(_definition_levels(complement(g)))], g


def test_perfection_by_definition_agrees_with_alpha_omega_and_berge():
    # The wpgt sweep compares the oracle only with itself on the complement,
    # so a fault that complement cannot see (answering True throughout, say)
    # passes every sweep; is_perfect and is_berge are independent engines.
    # The labeled graphs on n vertices are closed under complement, so the
    # exhaustive part checks every complement too.
    import random

    from pgl.oracles import is_perfect_by_definition

    perfect = []
    for n in range(7):
        perfect.append(0)
        for g in enumerate_graphs(n):
            verdict = is_perfect_by_definition(g)
            assert verdict == is_perfect(g), g
            if n <= 5:
                assert verdict == is_berge(g), g
            perfect[n] += verdict
    assert perfect == [1, 1, 2, 8, 64, 1012, 30824]
    rng = random.Random(1972)
    for n in range(7, 12):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for density in (0.2, 0.5, 0.8):
            for _ in range(6):
                g = make_graph(range(n), [e for e in pairs if rng.random() < density])
                for h in (g, complement(g)):
                    assert is_perfect_by_definition(h) == is_perfect(h) == is_berge(h), h


def test_enumerate_exhaustive_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    assert sum(1 for _ in enumerate_graphs(0)) == 1


def test_enumerate_exhaustive_order_is_edge_bitmask():
    stream = list(enumerate_graphs(3))
    assert stream[0].m == 0
    assert stream[0].nodes == (1, 2, 3)
    assert stream[1].edges == ((1, 2),)
    assert stream[2].edges == ((1, 3),)
    assert stream[-1].m == 3


def test_enumerate_exhaustive_cap():
    with pytest.raises(TooLargeError):
        next(enumerate_graphs(7))


def test_enumerate_random_is_reproducible():
    a = [g.edges for g in enumerate_graphs(7, "random", seed=42, count=50)]
    b = [g.edges for g in enumerate_graphs(7, "random", seed=42, count=50)]
    c = [g.edges for g in enumerate_graphs(7, "random", seed=43, count=50)]
    assert a == b
    assert a != c
    assert all(len(edges) <= 21 for edges in a)


def test_enumerate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        next(enumerate_graphs(3, "all"))


def test_streams_reject_negative_bounds():
    from pgl.oracles import stream_size

    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        stream_size(-1, "exhaustive")
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        next(enumerate_graphs(-1))
    with pytest.raises(ValueError, match="graph count must be non-negative"):
        stream_size(3, "random", -5)
    with pytest.raises(ValueError, match="graph count must be non-negative"):
        next(enumerate_graphs(3, "random", count=-5))


def test_nice_but_imperfect_exists_in_the_six_vertex_stream():
    # Niceness is not hereditary; the stream must contain a witness.
    for g in enumerate_graphs(6):
        if g.m < 8:
            continue
        if is_nice(g) and not is_perfect(g):
            return
    raise AssertionError("no nice-but-imperfect graph found on six vertices")


def _reference_odd_induced_cycle(g):
    """The hole search before the popcount filter: every subset goes to _cycle_order."""
    from itertools import combinations

    from pgl.oracles import _cycle_order

    for length in range(5, g.n + 1, 2):
        for S in combinations(g.nodes, length):
            cycle = _cycle_order(g, S)
            if cycle is not None:
                return cycle
    return None


def _assert_same_cycles(g):
    from pgl.oracles import _find_odd_induced_cycle, _subset_masks

    comp = complement(g)
    hole = _reference_odd_induced_cycle(g)
    antihole = _reference_odd_induced_cycle(comp)
    masks = _subset_masks(g.n)
    assert _find_odd_induced_cycle(g, masks) == hole, g
    assert _find_odd_induced_cycle(comp, masks) == antihole, g
    expected = ("hole", hole) if hole else ("antihole", antihole) if antihole else None
    assert find_odd_hole_or_antihole(g) == expected, g
    return expected


def test_filtered_hole_search_returns_the_reference_cycles():
    import random
    from itertools import combinations

    kinds = set()
    for n in range(7):
        for g in enumerate_graphs(n):
            found = _assert_same_cycles(g)
            kinds.add(found and found[0])
    assert kinds == {None, "hole"}
    rng = random.Random(47)
    for _ in range(1500):
        ids = sorted(rng.sample(range(60), rng.randint(1, 11)))
        p = rng.random()
        g = make_graph(ids, [e for e in combinations(ids, 2) if rng.random() < p])
        found = _assert_same_cycles(g)
        kinds.add(found and found[0])
    assert kinds == {None, "hole", "antihole"}
    # Past the old 12-vertex cap: sparse and dense graphs, bipartite ones,
    # which are Berge and so make both scans read every subset, and the
    # complements of bipartite ones with a planted 7-hole.
    large = set()
    for k in range(24):
        n = 13 + k % 2
        ids = sorted(rng.sample(range(60), n))
        pairs = list(combinations(ids, 2))
        if k % 3 == 2:
            side = {v for v in ids if rng.random() < 0.5}
            edges = [(u, v) for u, v in pairs if (u in side) != (v in side) and rng.random() < 0.5]
            if k % 4 == 3:
                hole = rng.sample(ids, 7)
                edges = [e for e in edges if not set(e) <= set(hole)]
                edges += [tuple(sorted((hole[i - 1], hole[i]))) for i in range(7)]
            g = make_graph(ids, edges)
            g = complement(g) if k % 4 == 3 else g
        else:
            p = (0.15, 0.85)[k % 3]
            g = make_graph(ids, [e for e in pairs if rng.random() < p])
        found = _assert_same_cycles(g)
        large.add(found and found[0])
    assert large == {None, "hole", "antihole"}


def _pairwise_graph_from_mask(n, mask):
    """graph_from_mask through make_graph: one validated edge pair per set bit."""
    from pgl.oracles import labeled_pairs

    pairs = labeled_pairs(n)
    return make_graph(range(1, n + 1), (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def _assert_same_graph(g, ref):
    assert g == ref and hash(g) == hash(ref) and g.edges == ref.edges, (g, ref)


def test_row_built_stream_graphs_match_the_make_graph_route():
    import random

    from pgl.oracles import graph_from_mask

    spare = random.Random(34)
    for n in range(7):
        bits = n * (n - 1) // 2
        refs = [_pairwise_graph_from_mask(n, mask) for mask in range(1 << bits)]
        for mask, ref in enumerate(refs):
            _assert_same_graph(graph_from_mask(n, mask), ref)
            # Bits past the last pair, in the last 7-bit chunk and beyond it, are ignored.
            _assert_same_graph(graph_from_mask(n, mask | spare.getrandbits(16) << bits), ref)
        for g, ref in zip(enumerate_graphs(n), refs, strict=True):
            _assert_same_graph(g, ref)
    rng = random.Random(7)
    for n in range(7, 13):
        bits = n * (n - 1) // 2
        masks = [rng.getrandbits(bits) for _ in range(300)]
        # Bits past the last pair are ignored, as are the sign bits of a negative mask.
        masks += [-1, -rng.getrandbits(bits), rng.getrandbits(bits + 9)]
        for mask in masks:
            _assert_same_graph(graph_from_mask(n, mask), _pairwise_graph_from_mask(n, mask))
        for seed in (1, 42):
            draws = random.Random(seed)
            stream = enumerate_graphs(n, "random", seed=seed, count=300)
            for g in stream:
                _assert_same_graph(g, _pairwise_graph_from_mask(n, draws.getrandbits(bits)))


def test_stream_tables_grow_as_the_graph_does():
    # Two 128-entry tables and one tuple per row piece: about 0.6 MB at
    # n = 200, where packed rows per 7-bit mask chunk took about 1.8 GB.
    import random
    import sys

    from pgl.oracles import _row_pieces, graph_from_mask

    def size(obj):
        return sys.getsizeof(obj) + (sum(size(x) for x in obj) if isinstance(obj, tuple) else 0)

    assert size(_row_pieces(200)) < 1 << 20
    rng = random.Random(200)
    for n in (20, 30, 200):
        bits = n * (n - 1) // 2
        for mask in (0, (1 << bits) - 1, rng.getrandbits(bits), rng.getrandbits(bits + 7)):
            _assert_same_graph(graph_from_mask(n, mask), _pairwise_graph_from_mask(n, mask))


def test_oracle_answers_a_dense_graph_the_coloring_walk_gave_up_on():
    # The product-order walk this chi replaced passed its node budget of
    # 200,000 on this graph, and ran for more than 30 s without one.
    import random
    from itertools import combinations

    rng = random.Random(16)
    g = make_graph(range(16), [e for e in combinations(range(16), 2) if rng.random() < 0.9])
    p = oracle_parameters(g)
    q = graph_parameters(g)
    assert (p.alpha, p.omega, p.chi) == (q.alpha, q.omega, q.chi)
    _assert_chi_witness(g, p)
