"""Parameters, covers, colorings, niceness and perfection."""

import gc
import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgl import (
    InvalidColoringError,
    NotAStableCoverError,
    TooLargeError,
    check_cover,
    clique_cover_alpha,
    clique_number,
    coloring_to_cover,
    colors_used,
    complement,
    cover_to_coloring,
    enumerate_graphs,
    find_isomorphism,
    graph_parameters,
    imperfection_witness,
    induced_subgraph,
    is_clique,
    is_nice,
    is_perfect,
    is_stable,
    is_valid_coloring,
    make_graph,
    max_clique_witness,
    max_stable_sets,
    max_stable_witness,
    replicate,
    stable_number,
    wpgt_certificate,
)

from conftest import (
    SealedTable,
    complete,
    cycle,
    edgeless,
    house,
    joined_double_pentagon,
    path,
    pinned_graphs,
    run_optimized,
)


def test_is_stable():
    assert is_stable(cycle(5), [1, 3])
    assert not is_stable(cycle(5), [1, 2])
    assert is_stable(house(), [1, 3])
    assert not is_stable(house(), [2, 4])
    assert not is_stable(cycle(5), [1, 99])


def test_is_clique():
    assert is_clique(house(), [2, 3, 4])
    assert all(is_clique(cycle(5), [v]) for v in range(1, 6))
    assert not is_clique(cycle(5), [1, 2, 3])


def test_is_valid_coloring():
    assert is_valid_coloring(cycle(5), {1: 0, 2: 1, 3: 0, 4: 1, 5: 2})
    assert not is_valid_coloring(cycle(5), {1: 0, 2: 1, 3: 0, 4: 1, 5: 0})
    assert is_valid_coloring(complete(3), {1: 5, 2: 7, 3: 9})
    assert not is_valid_coloring(cycle(5), {1: 0, 2: 1})


def test_parameters_of_pentagon():
    p = graph_parameters(cycle(5))
    assert (p.alpha, p.omega, p.chi) == (2, 2, 3)


def test_parameters_of_joined_double_pentagon():
    p = graph_parameters(joined_double_pentagon())
    assert (p.omega, p.chi) == (4, 6)
    assert p.alpha == 2


def test_parameters_trivial_graphs():
    assert (lambda p: (p.alpha, p.omega, p.chi))(graph_parameters(complete(4))) == (1, 4, 4)
    assert (lambda p: (p.alpha, p.omega, p.chi))(graph_parameters(edgeless(3))) == (3, 1, 1)
    assert (lambda p: (p.alpha, p.omega, p.chi))(graph_parameters(make_graph([]))) == (0, 0, 0)


def test_parameter_witnesses_validate():
    for g in (cycle(5), house(), complete(4), path(4), joined_double_pentagon()):
        p = graph_parameters(g)
        assert is_clique(g, p.max_clique_witness) and len(p.max_clique_witness) == p.omega
        assert is_stable(g, p.max_stable_witness) and len(p.max_stable_witness) == p.alpha
        assert is_valid_coloring(g, p.chi_witness)
        assert len(colors_used(g, p.chi_witness)) == p.chi
        assert p.omega <= p.chi


def _least_largest_clique(g):
    """The first clique by combinations, largest size first."""
    adj = g.bit_adjacency
    for r in range(g.n, -1, -1):
        for S in combinations(range(g.n), r):
            if all(adj[i] >> j & 1 for i, j in combinations(S, 2)):
                return tuple(g.nodes[i] for i in S)


def _reference_lex_min(adj, universe):
    """Mask of the least maximum clique, by the two-engine search that the
    one clique search replaced (without its coloring bound).

    Finds the clique number by asking for ever larger cliques, then
    commits vertices in index order while a clique of the remaining size
    still completes.
    """

    def exists(cand, k):
        if k <= 0:
            return True
        m = cand
        while m:
            if m.bit_count() < k:
                return False
            v = m & -m
            m ^= v
            if exists(m & adj[v.bit_length() - 1], k - 1):
                return True
        return False

    need = 0
    while exists(universe, need + 1):
        need += 1
    chosen, cand = 0, universe
    while need:
        m = cand
        while m:
            v = m & -m
            m ^= v
            i = v.bit_length() - 1
            if exists(cand & adj[i], need - 1):
                chosen |= v
                cand &= adj[i]
                need -= 1
                break
    return chosen


def _assert_witnesses(g, clique, stable):
    p = graph_parameters(g)
    assert (p.max_clique_witness, p.max_stable_witness) == (clique, stable), g.edges
    assert (p.omega, p.alpha) == (len(clique), len(stable)), g.edges
    assert max_clique_witness(g) == clique, g.edges
    assert max_stable_witness(g) == stable, g.edges


def test_witnesses_are_the_lex_least_maximum_sets_on_all_small_graphs():
    for g in (g for n in range(7) for g in enumerate_graphs(n)):
        _assert_witnesses(g, _least_largest_clique(g), _least_largest_clique(complement(g)))


def test_witnesses_match_the_two_engine_search_on_random_graphs():
    rng = random.Random(1975)
    graphs = [_random_graph(rng, n, d) for n in range(7, 17) for d in (0.2, 0.5, 0.8) for _ in range(34)]
    for g in graphs + [complement(g) for g in graphs]:
        full = (1 << g.n) - 1
        clique = _reference_lex_min(g.bit_adjacency, full)
        stable = _reference_lex_min(complement(g).bit_adjacency, full)
        _assert_witnesses(
            g,
            tuple(v for i, v in enumerate(g.nodes) if clique >> i & 1),
            tuple(v for i, v in enumerate(g.nodes) if stable >> i & 1),
        )


def _unguarded_max_clique(adj, universe):
    """The clique search as it was when it ran the color bound at every node."""
    from pgl.invariants import _greedy_color_classes

    best, best_mask = 0, 0

    def extend(size, chosen, cand):
        nonlocal best, best_mask
        if size > best:
            best, best_mask = size, chosen
        if not cand or size + cand.bit_count() <= best:
            return
        if size + _greedy_color_classes(adj, cand) <= best:
            return
        m = cand
        while m:
            if size + m.bit_count() <= best:
                return
            v = m & -m
            i = v.bit_length() - 1
            m ^= v
            extend(size + 1, chosen | v, m & adj[i])

    extend(0, 0, universe)
    return best, best_mask


def test_guarded_color_bound_keeps_every_clique_result():
    from pgl.core import _complement_rows
    from pgl.invariants import _max_clique

    rng = random.Random(1789)
    small = [g for n in range(7) for g in enumerate_graphs(n)]
    randoms = [_random_graph(rng, n, d) for n in range(7, 17) for d in (0.2, 0.5, 0.8) for _ in range(10)]
    for g in small + randoms:
        full = (1 << g.n) - 1
        for adj in (g.bit_adjacency, _complement_rows(g.bit_adjacency)):
            assert _max_clique(adj, full) == _unguarded_max_clique(adj, full), g.edges


def test_clique_search_skips_the_color_bound_while_it_cannot_prune(monkeypatch):
    from pgl import invariants

    calls = []
    greedy = invariants._greedy_color_classes

    def counted(adj, cand):
        calls.append(cand)
        return greedy(adj, cand)

    monkeypatch.setattr(invariants, "_greedy_color_classes", counted)
    # Every node of the one descent through the 300-clique of the
    # complement has best == size, where the bound cannot cut.
    assert stable_number(edgeless(300)) == 300
    assert calls == []
    # Past the first maximal clique the bound runs again.
    assert clique_number(joined_double_pentagon()) == 4
    assert calls


def _first_fit_classes(adj, cand):
    """Classes of cand when each vertex, in index order, joins the first class it has no neighbour in."""
    classes = []
    for i in range(cand.bit_length()):
        if cand >> i & 1:
            k = next((k for k, cls in enumerate(classes) if not cls & adj[i]), len(classes))
            if k == len(classes):
                classes.append(0)
            classes[k] |= 1 << i
    return len(classes)


def test_peeled_color_classes_count_the_first_fit_partition():
    from pgl.invariants import _greedy_color_classes

    rng = random.Random(87)
    for _ in range(5000):
        n = rng.randint(0, 24)
        g = _random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
        cand = rng.getrandbits(n)
        assert _greedy_color_classes(g.bit_adjacency, cand) == _first_fit_classes(g.bit_adjacency, cand)


def test_graph_parameters_and_niceness_are_pinned():
    # sha256 of the parameters, witnesses included, and of is_nice, as the
    # searches gave them before their candidate tests became mask tests.
    digest = hashlib.sha256()
    for g in pinned_graphs():
        digest.update(repr((graph_parameters(g), is_nice(g))).encode())
    assert digest.hexdigest()[:16] == "def6d62a337dc6e2"


def _listing_and_clique_gap():
    # The listing stops at its first 2 of 256 sets; the pentagon fails
    # with a clique gap, which counts the sets one clique meets.
    assert len(max_stable_sets(make_graph(range(16), [(2 * i, 2 * i + 1) for i in range(8)]), 8)) == 2
    assert clique_cover_alpha(cycle(5)).kind == "clique-gap"


@pytest.mark.parametrize(
    "search",
    [
        lambda: graph_parameters(joined_double_pentagon()),
        lambda: is_nice(cycle(7)),
        _listing_and_clique_gap,
        lambda: wpgt_certificate(house()),
        lambda: find_isomorphism(cycle(7), make_graph(range(7), [(i, (i + 3) % 7) for i in range(7)])),
    ],
    ids=["parameters", "nice", "listing-and-clique-gap", "certificate", "isomorphism"],
)
def test_the_searches_leave_no_reference_cycles(search):
    search()
    gc.collect()
    gc.disable()
    try:
        search()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_graph_parameters_checks_itself_under_python_O():
    out = run_optimized(
        "import sys\n"
        "from pgl import invariants, make_graph\n"
        "assert False\n"
        "invariants._chromatic = lambda adj, n, lower: (lower - 1, [0] * n)\n"
        "try:\n"
        "    invariants.graph_parameters(make_graph([1, 2], [(1, 2)]))\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert out == "1 graph_parameters found chi=1 below omega=2\n"


def test_max_stable_sets_pentagon():
    assert max_stable_sets(cycle(5)) == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def test_max_stable_sets_square_and_triangle():
    assert max_stable_sets(cycle(4)) == ((1, 3), (2, 4))
    assert max_stable_sets(complete(3)) == ((1,), (2,), (3,))


def test_max_stable_sets_stops_once_its_sets_pass_max_total():
    # Four disjoint edges: sixteen maximum stable sets of four vertices.
    g = make_graph(range(8), [(0, 1), (2, 3), (4, 5), (6, 7)])
    every = max_stable_sets(g)
    assert len(every) == 16
    for max_total, count in [(0, 1), (3, 1), (4, 2), (20, 6), (63, 16), (64, 16), (10**6, 16)]:
        assert max_stable_sets(g, max_total) == every[:count], max_total
    assert max_stable_sets(make_graph([]), 0) == ()


def test_is_nice_pentagon_and_replications():
    g1 = cycle(5)
    assert not is_nice(g1)
    g2, _ = replicate(g1, 4)
    assert is_nice(g2)
    g3, _ = replicate(g2, 2)
    assert not is_nice(g3)


def test_is_perfect_examples():
    assert is_perfect(house())
    assert not is_perfect(cycle(5))
    assert is_perfect(complete(5))
    assert is_perfect(path(5))
    assert is_perfect(edgeless(4))
    assert is_perfect(make_graph([]))


def test_imperfection_witness_is_the_odd_hole():
    g = cycle(5)
    assert imperfection_witness(g) == (1, 2, 3, 4, 5)
    assert imperfection_witness(house()) is None


def test_imperfection_witness_breaks_ties_by_mask_past_twelve_vertices():
    # Two disjoint five-cycles on 13 vertices: {0,1,2,3,12} comes first in
    # combinations order, but {4,...,8} has the smaller mask.
    first = [(0, 1), (1, 2), (2, 3), (3, 12), (12, 0)]
    second = [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
    assert imperfection_witness(make_graph(range(13), first + second)) == (4, 5, 6, 7, 8)


def _least_subset_with_chi_above_omega(g):
    from itertools import zip_longest

    from pgl.oracles import _definition_levels

    # Level k marks the subsets with omega (chi) <= k; the shorter list
    # has reached every subset, so its missing levels are full.
    full = (1 << (1 << g.n)) - 1
    differ = 0
    for om, ch in zip_longest(*next(_definition_levels(g)), fillvalue=full):
        differ |= om ^ ch
    bad = [m for m in range(1 << g.n) if differ >> m & 1]
    if not bad:
        return None
    least = min(bad, key=lambda m: (m.bit_count(), m))
    return tuple(v for i, v in enumerate(g.nodes) if least >> i & 1)


def test_imperfection_witness_is_the_least_subset_with_chi_above_omega():
    # Lovasz's alpha * omega bound must pick the same subset as the chi
    # table does, smallest first and then by mask.
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    graphs += [cycle(7), cycle(9), complement(cycle(7)), complement(cycle(9))]
    rng = random.Random(1972)
    for n in range(7, 13):
        for density in (0.2, 0.5, 0.8):
            for _ in range(8):
                pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
                graphs.append(make_graph(range(1, n + 1), [e for e in pairs if rng.random() < density]))
    for g in graphs:
        assert imperfection_witness(g) == _least_subset_with_chi_above_omega(g)


# The pairs (omega, alpha) with omega + alpha <= 21, one byte code each.
_PAIRS = [(w, a) for w in range(22) for a in range(22 - w)]
_OMEGA = [w for w, _ in _PAIRS]
_ALPHA = [a for _, a in _PAIRS]
_PAIR_CODE = [[c for c, (w, _) in enumerate(_PAIRS) if w == omega] for omega in range(22)]


def _reference_witness(g):
    """The byte-per-subset Gosper walk that the level tables replaced.

    Walks the subsets by size, then mask, filling omega and alpha of each
    from smaller subsets, and returns the first S with |S| > alpha * omega.
    """
    omega_of, alpha_of, code = _OMEGA, _ALPHA, _PAIR_CODE
    n, adj = g.n, g.bit_adjacency
    top = 1 << n
    table = bytearray(top)
    for r in range(1, n + 1):
        m = (1 << r) - 1
        while m < top:
            v = m & -m
            rest = m ^ v
            inside = rest & adj[v.bit_length() - 1]
            c = table[rest]
            w = max(omega_of[c], omega_of[table[inside]] + 1)
            a = max(alpha_of[c], alpha_of[table[rest ^ inside]] + 1)
            if r > w * a:
                return tuple(x for i, x in enumerate(g.nodes) if m >> i & 1)
            table[m] = code[w][a]
            ripple = m + v
            m = (((ripple ^ m) >> 2) // v) | ripple
    return None


def _random_graph(rng, n, density):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(range(n), [e for e in pairs if rng.random() < density])


def _cross_pairs(rng, n):
    """Each pair of an even and an odd vertex, with probability 1/2."""
    return [(u, v) for u in range(0, n, 2) for v in range(1, n, 2) if rng.random() < 0.5]


def _bipartite(rng, n):
    return make_graph(range(n), _cross_pairs(rng, n))


def _split(rng, n):
    clique = [(u, v) for u in range(0, n, 2) for v in range(u + 2, n, 2)]
    return make_graph(range(n), clique + _cross_pairs(rng, n))


def _interval(rng, n):
    spans = [(a, a + rng.uniform(0, 4)) for a in (rng.uniform(0, n) for _ in range(n))]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    meet = [(u, v) for u, v in pairs if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]]
    return make_graph(range(n), meet)


def _with_hole(g, hole):
    """g with the vertices of hole inducing the cycle through them in order."""
    inside = set(hole)
    edges = [(u, v) for u, v in g.edges if not (u in inside and v in inside)]
    return make_graph(g.nodes, edges + [(hole[i - 1], hole[i]) for i in range(len(hole))])


def _top_vertex_hole(rng, n):
    """A bipartite graph on 0..n-2 plus vertex n-1 closing an induced P4 into a 5-cycle."""
    base = _bipartite(rng, n - 1)
    a, b, c, d = 0, 1, 2, 3
    inside = {a, b, c, d}
    edges = [(u, v) for u, v in base.edges if not (u in inside and v in inside)]
    edges += [(a, b), (b, c), (c, d), (a, n - 1), (d, n - 1)]
    return make_graph(range(n), edges)


def _assert_like_reference(graphs):
    for g in graphs:
        expected = _reference_witness(g)
        assert imperfection_witness(g) == expected, g.edges
        assert is_perfect(g) == (expected is None), g.edges


def test_level_tables_match_the_gosper_walk_on_all_small_graphs():
    _assert_like_reference(g for n in range(7) for g in enumerate_graphs(n))


def test_level_tables_match_the_gosper_walk_on_random_graphs():
    rng = random.Random(20)
    densities = (0.2, 0.5, 0.8)
    _assert_like_reference(
        _random_graph(rng, n, d) for n in range(7, 17) for d in densities for _ in range(10)
    )


def test_level_tables_match_the_gosper_walk_on_perfect_families():
    rng = random.Random(21)
    families = [_bipartite, _split, _interval]
    graphs = [family(rng, n) for n in range(5, 17) for family in families for _ in range(2)]
    graphs += [complement(_bipartite(rng, n)) for n in range(5, 17) for _ in range(2)]
    assert all(is_perfect(g) for g in graphs)
    _assert_like_reference(graphs)


def test_level_tables_match_the_gosper_walk_on_planted_holes():
    rng = random.Random(22)
    graphs = []
    for n in range(7, 21):
        for k in (5, 7):
            graphs.append(_with_hole(_random_graph(rng, n, 0.3), rng.sample(range(n), k)))
            graphs.append(_with_hole(_bipartite(rng, n), rng.sample(range(n), k)))
            graphs.append(complement(_with_hole(_bipartite(rng, n), rng.sample(range(n), k))))
        graphs.append(_with_hole(_bipartite(rng, n), range(5)))
        graphs.append(_top_vertex_hole(rng, n))
    _assert_like_reference(graphs)


def test_level_tables_match_the_gosper_walk_at_zero_and_one_vertex():
    _assert_like_reference([make_graph([]), make_graph([7])])


def test_is_perfect_stops_at_the_first_violating_vertex_prefix(monkeypatch):
    from pgl import invariants

    checked = []
    real = invariants._violations

    def violations(W, A, t):
        checked.append(t)
        return real(W, A, t)

    monkeypatch.setattr(invariants, "_violations", violations)
    monkeypatch.setattr(invariants, "_PREFIXES", {})
    rng = random.Random(23)
    early = _with_hole(_bipartite(rng, 20), range(5))
    # Tabling the five-vertex prefix checks step 4; as it is a C5, the
    # walk then starts after four vertices and checks step 4 again.
    assert not is_perfect(early)
    assert checked == [4, 4]
    checked.clear()
    assert not is_perfect(early)
    assert checked == [4]
    checked.clear()
    assert imperfection_witness(early) == (0, 1, 2, 3, 4)
    assert checked == list(range(4, 20))
    late = _top_vertex_hole(rng, 20)
    checked.clear()
    assert is_perfect(induced_subgraph(late, range(19)))
    assert checked == list(range(4, 19))
    # Once tabled, a prefix that is no C5 starts the walk after five vertices.
    checked.clear()
    assert not is_perfect(late)
    assert checked == list(range(5, 20))


def test_the_bound_is_checked_only_in_the_step_and_the_step_taken_only_by_its_three_callers():
    import ast
    import os

    import pgl

    # (name, the function that names it) for each use of the step or the
    # bound check in pgl, a call or any other; "<file>" outside a function.
    uses = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None) or getattr(child, "name", None)
            if isinstance(child, (ast.Name, ast.Attribute, ast.alias)) and name in ("_halves", "_violations"):
                uses.add((name, where))
            visit(child, where)

    root = os.path.dirname(pgl.__file__)
    for file in sorted(os.listdir(root)):
        if file.endswith(".py"):
            with open(os.path.join(root, file)) as fh:
                visit(ast.parse(fh.read()), f"<{file}>")
    assert uses == {
        ("_violations", "_halves"),
        ("_halves", "_walk"),
        ("_halves", "_prefix_tables"),
        ("_halves", "_breaks_bound"),
    }


def test_perfection_cap():
    from pgl.invariants import PERFECTION_MAX_N

    # The documented cap; every other test reads it from PERFECTION_MAX_N.
    assert PERFECTION_MAX_N == 20


def test_the_walk_answers_at_the_perfection_cap_and_refuses_past_it(monkeypatch):
    from pgl import invariants
    from pgl.invariants import PERFECTION_MAX_N

    n = PERFECTION_MAX_N
    halves = [(u, v) for u in range(n // 2) for v in range(n // 2, n) if (u * v) % 3 != 1]
    rng = random.Random(24)
    assert is_perfect(make_graph(range(n), halves))
    assert is_perfect(complement(make_graph(range(n), halves)))
    assert is_perfect(_split(rng, n))
    only_hole = _top_vertex_hole(rng, n)
    assert is_perfect(induced_subgraph(only_hole, range(n - 1)))
    assert not is_perfect(only_hole)
    assert imperfection_witness(only_hole) == (0, 1, 2, 3, n - 1)

    def no_table(*args):
        raise AssertionError("a level table was built past the cap")

    monkeypatch.setattr(invariants, "_grown", no_table)
    monkeypatch.setattr(invariants, "_PREFIXES", SealedTable())
    # At the cap the walk starts from the prefix table; one past it, it
    # neither reads nor fills that table.
    with pytest.raises(AssertionError, match="^the prefix table was used$"):
        is_perfect(edgeless(n))
    for check in (is_perfect, imperfection_witness):
        with pytest.raises(TooLargeError, match=f"^perfection check capped at {n} vertices$"):
            check(edgeless(n + 1))


def test_one_step_on_the_merged_tables_decides_each_graph_with_one_more_vertex():
    from pgl.invariants import _breaks_bound, _walk

    extended = 0
    for n in range(6):
        for g in enumerate_graphs(n):
            violating, _, _, tables = _walk(g, early=True, whole=True)
            assert (not violating) == is_perfect(g), g
            if violating:
                continue
            # Vertex n + 1 joins the vertices at the set bits of row.
            for row in range(1 << n):
                joined = [(v, n + 1) for i, v in enumerate(g.nodes) if row >> i & 1]
                h = make_graph((*g.nodes, n + 1), [*g.edges, *joined])
                assert _breaks_bound(tables, row) == (not is_perfect(h)), (g, row)
                extended += 1
    assert extended > 30_000


def test_the_merged_tables_refuse_a_vertex_past_the_cap():
    from pgl.invariants import PERFECTION_MAX_N, _breaks_bound, _walk

    tables = _walk(edgeless(PERFECTION_MAX_N - 1), early=True, whole=True)[3]
    assert _breaks_bound(tables, 0) is False
    tables = _walk(edgeless(PERFECTION_MAX_N), early=True, whole=True)[3]
    with pytest.raises(TooLargeError, match=f"^perfection check capped at {PERFECTION_MAX_N} vertices$"):
        _breaks_bound(tables, 0)


def _levels_by_definition(g):
    """W and A of g: level k marks the vertex sets S with omega(G[S]) >= k, or alpha(G[S]) >= k."""
    params = [graph_parameters(induced_subgraph(g, [v for v in g.nodes if S >> v & 1])) for S in range(1 << g.n)]

    def levels(value):
        return tuple(sum(1 << S for S, p in enumerate(params) if value(p) >= k) for k in range(max(map(value, params)) + 1))

    return levels(lambda p: p.omega), levels(lambda p: p.alpha)


def _c5_prefixes():
    """The rows of the twelve labelled five-cycles on vertices 0..4, each row cut to its earlier neighbours."""
    from itertools import permutations

    cycles = {frozenset(frozenset((p[i - 1], p[i])) for i in range(5)) for p in permutations(range(5))}
    return {tuple(sum(1 << i for i in range(t) if frozenset((i, t)) in c) for t in range(5)) for c in cycles}


def test_the_prefix_table_holds_every_prefix_of_at_most_five_vertices_as_the_step_builds_it(monkeypatch):
    from pgl import invariants

    monkeypatch.setattr(invariants, "_PREFIXES", {})
    # A walk on n <= 5 vertices starts after its first n - 1; a sixth
    # vertex makes it start after all five.
    for n in range(6):
        for g in enumerate_graphs(n):
            invariants._walk(g, early=False, whole=False)
            if n == 5:
                invariants._walk(make_graph(range(1, 7), [*g.edges, (1, 6)]), early=True, whole=False)
    # Row t of a prefix keeps its t bits below t.
    expected = {rows for m in range(1, 6) for rows in product(*(range(1 << t) for t in range(m)))}
    assert len(expected) == 1 + 2 + 8 + 64 + 1024
    assert set(invariants._PREFIXES) == expected
    c5 = _c5_prefixes()
    assert len(c5) == 12
    assert {rows for rows, tables in invariants._PREFIXES.items() if tables is None} == c5
    for rows, tables in invariants._PREFIXES.items():
        W, A = [1], [1]
        for t, row in enumerate(rows):
            new_w, new_a, bad = invariants._halves(W, A, t, row)
            # Bit S of bad marks S | {4}: only S = {0, 1, 2, 3} can break the bound.
            assert bad == (1 << 0b1111 if rows in c5 and t == 4 else 0), rows
            invariants._merge(W, new_w, 1 << t)
            invariants._merge(A, new_a, 1 << t)
        g = make_graph(range(len(rows)), [(i, t) for t, row in enumerate(rows) for i in range(t) if row >> i & 1])
        if rows not in c5:
            assert tables == (tuple(W), tuple(A)) == _levels_by_definition(g), rows


def test_a_walk_whose_first_five_vertices_are_a_c5_starts_after_four(monkeypatch):
    from pgl import invariants

    monkeypatch.setattr(invariants, "_PREFIXES", {})
    rng = random.Random(28)
    for rows in sorted(_c5_prefixes()):
        ring = [(i, t) for t, row in enumerate(rows) for i in range(t) if row >> i & 1]
        n = rng.randint(6, 8)
        g = make_graph(range(n), ring + [(u, v) for v in range(5, n) for u in range(v) if rng.random() < 0.5])
        p = graph_parameters(g)
        # The tables cover the vertices before the last half built: 0..3
        # when the walk stops at step 4, all but the last otherwise.
        def tables(t):
            return (*map(list, _levels_by_definition(induced_subgraph(g, range(t)))), t)

        stopped = (0b11111, None, None, tables(4))
        done = (0b11111, p.alpha, p.omega, tables(n - 1))
        # The first walk tables the prefix, the second reads it.
        for _ in range(2):
            assert invariants._walk(g, early=True, whole=False) == stopped
            assert invariants._walk(g, early=True, whole=True) == stopped
            assert invariants._walk(g, early=False, whole=False) == done
            assert imperfection_witness(g) == (0, 1, 2, 3, 4)
        assert invariants._PREFIXES[rows] is None


def test_one_product_spreads_a_small_step_as_its_shift_ors_do():
    from pgl import invariants

    rng = random.Random(29)
    for t in range(invariants._SMALL_T + 1):
        for row in range(1 << t):
            keep_w, keep_a, ones, near, far = invariants._step_masks(t, row)
            for _ in range(3):
                levels = [ones, ones, *(rng.getrandbits(1 << t) for _ in range(rng.randint(0, 4)))]
                first = rng.getrandbits(1 << t)
                assert invariants._grown(levels, keep_w, keep_a, first, ones) == invariants._grown(
                    levels, keep_w, far, first, ones
                ), (t, row)
                assert invariants._grown(levels, keep_a, keep_w, first, ones) == invariants._grown(
                    levels, keep_a, near, first, ones
                ), (t, row)
    # Walks read the cached masks of each small step by its row cut to t bits.
    for n in (7, 12, 20):
        is_perfect(_random_graph(rng, n, 0.5))
    assert all(t <= invariants._SMALL_T and row < 1 << t for t, row in invariants._STEPS)
    assert all(masks == invariants._step_masks(t, row)[:3] for (t, row), masks in invariants._STEPS.items())


def test_a_walk_grows_the_size_table_only_to_its_last_step(monkeypatch):
    from pgl import invariants

    monkeypatch.setattr(invariants, "_SIZES", [1, 0])
    rng = random.Random(26)
    # The hole on vertices 0..4 stops the walk at step 4, the first that
    # checks the bound.
    assert not is_perfect(_with_hole(_bipartite(rng, 20), range(5)))
    assert len(invariants._SIZES) - 2 == 4
    assert not is_perfect(_top_vertex_hole(rng, 12))
    assert len(invariants._SIZES) - 2 == 11
    # Level r marks the sets of at least r of the first 11 vertices.
    assert invariants._SIZES == [sum(1 << S for S in range(1 << 11) if S.bit_count() >= r) for r in range(13)]


def test_a_walk_at_twenty_vertices_peaks_as_before_and_keeps_only_the_size_table(monkeypatch):
    import tracemalloc

    from pgl import invariants

    monkeypatch.setattr(invariants, "_SIZES", [1, 0])
    rng = random.Random(27)
    small = [_random_graph(rng, 7, rng.choice((0.3, 0.5, 0.7))) for _ in range(200)]
    answers = [(is_perfect(g), imperfection_witness(g)) for g in small]
    assert answers == [(w is None, w) for w in map(_reference_witness, small)]
    g = make_graph(range(20), [(u, v) for u in range(10) for v in range(10, 20) if (u * v) % 3 != 1])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_perfect(g)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # 3.20 MiB was this walk's peak when each walk grew its own size
    # levels; it keeps the shared table over 19 vertices, 20 levels of
    # 2^19 bits (1.25 MiB).
    assert peak <= 3.3 * 2**20
    assert kept <= 1.4 * 2**20
    assert len(invariants._SIZES) - 2 == 19
    # Walks at 7 vertices read the deep table cut to its low 2^t bits.
    assert [(is_perfect(g), imperfection_witness(g)) for g in small] == answers


def test_perfection_is_hereditary():
    g = house()
    for r in range(g.n + 1):
        from itertools import combinations

        for S in combinations(g.nodes, r):
            assert is_perfect(induced_subgraph(g, S))


def test_check_cover():
    assert check_cover(cycle(5), ((1, 3), (2, 4), (5,)), "stable")
    assert check_cover(cycle(4), ((1, 2), (3, 4)), "clique")
    assert not check_cover(cycle(5), ((1, 3), (2, 4)), "stable")
    with pytest.raises(ValueError):
        check_cover(cycle(4), (), "chromatic")


def test_coloring_to_cover():
    cover = coloring_to_cover(cycle(5), {1: 0, 2: 1, 3: 0, 4: 1, 5: 2})
    assert cover == ((1, 3), (2, 4), (5,))
    assert coloring_to_cover(complete(3), {1: 0, 2: 1, 3: 2}) == ((1,), (2,), (3,))
    assert coloring_to_cover(edgeless(2), {1: 7, 2: 7}) == ((1, 2),)
    with pytest.raises(InvalidColoringError):
        coloring_to_cover(cycle(5), {1: 0, 2: 0, 3: 1, 4: 0, 5: 1})


def test_a_bool_coloring_key_is_refused_not_read_as_a_vertex():
    # True and 1.0 equal 1, so a lookup of vertex 1 used to find those keys.
    g = make_graph([0, 1], [(0, 1)])
    for check in (is_valid_coloring, coloring_to_cover, colors_used):
        for f, key in (({0: 0, True: 1}, True), ({False: 0, 1: 1}, False), ({0: 0, 1.0: 1}, 1.0)):
            with pytest.raises(ValueError, match=f"vertex ids must be non-negative integers, got {key}"):
                check(g, f)
        # Any other key that is no node is still ignored.
        f = {0: 0, 1: 1, -1: 1, "0": 1, 2.5: 0}
        assert check(g, f) == {is_valid_coloring: True, coloring_to_cover: ((0,), (1,)), colors_used: (0, 1)}[check]


def test_cover_to_coloring_disjoint_uses_all_parts():
    g = cycle(5)
    coloring = cover_to_coloring(g, ((1, 3), (2, 4), (5,)))
    assert is_valid_coloring(g, coloring)
    assert colors_used(g, coloring) == (0, 1, 2)


def test_cover_to_coloring_overlapping_parts():
    g = cycle(4)
    coloring = cover_to_coloring(g, ((1, 3), (1, 3), (2, 4)))
    assert is_valid_coloring(g, coloring)
    assert len(colors_used(g, coloring)) == 2


def test_cover_to_coloring_singleton():
    g = make_graph([1])
    assert cover_to_coloring(g, ((1,),)) == {1: 0}


def test_cover_to_coloring_rejects_non_stable_cover():
    with pytest.raises(NotAStableCoverError):
        cover_to_coloring(cycle(4), ((1, 2), (3, 4)))


# The mask checks against a set-based reference that reads every part as
# a set of ids and tests its pairs against the edge list.


def _reference_ids(C):
    """The ValueError union_over raises for a bool, non-int or negative id in any part."""
    ids = [v for part in C for v in part]
    for v in ids:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
    if ids and min(ids) < 0:
        raise ValueError(f"vertex ids must be non-negative integers, got {min(ids)!r}")


def _reference_part(G, part, kind):
    _reference_ids([part])
    members = set(part)
    if not members <= set(G.nodes):
        return False
    edges = set(G.edges)
    joined = [(min(u, v), max(u, v)) in edges for u, v in combinations(members, 2)]
    return not any(joined) if kind == "stable" else all(joined)


def _reference_cover(G, C, kind, part_ok=_reference_part):
    _reference_ids(C)
    if set().union(*map(set, C)) != set(G.nodes):
        return False
    return all(part_ok(G, part, kind) for part in C)


def _reference_coloring(G, C, part_ok=_reference_part):
    if not _reference_cover(G, C, "stable", part_ok):
        raise NotAStableCoverError("parts must be stable sets covering all nodes")
    return [(v, next(i for i, part in enumerate(C) if v in part)) for v in G.nodes]


def _outcome(check, *args):
    try:
        out = check(*args)
    except (ValueError, NotAStableCoverError) as exc:
        return type(exc), str(exc)
    return list(out.items()) if isinstance(out, dict) else out


class _Id(int):
    """An int subclass: read like the int it equals, as union_over reads it."""


def _assert_cover_checks_agree(G, C, part_ok=_reference_part):
    for kind in ("stable", "clique"):
        assert _outcome(check_cover, G, C, kind) == _outcome(_reference_cover, G, C, kind, part_ok), (G, C, kind)
    assert _outcome(cover_to_coloring, G, C) == _outcome(_reference_coloring, G, C, part_ok), (G, C)


def test_the_mask_checks_match_the_set_based_reference():
    covers = 0
    for n in range(5):
        for G in enumerate_graphs(n):
            subsets = [S for r in range(n + 1) for S in combinations(G.nodes, r)]
            for part in subsets + [S[::-1] + S[:1] for S in subsets] + [(0,), (n + 1, *G.nodes), (99,)]:
                for check, kind in ((is_stable, "stable"), (is_clique, "clique")):
                    assert check(G, part) == _reference_part(G, part, kind), (G, part, kind)
                    assert check(G, iter(part)) == _reference_part(G, part, kind), (G, part, kind)
            # Every cover of at most three parts.  Their parts hold plain
            # ints only, so the reference verdict on each part is kept.
            verdicts = {}

            def part_ok(G, part, kind):
                if (part, kind) not in verdicts:
                    verdicts[part, kind] = _reference_part(G, part, kind)
                return verdicts[part, kind]

            for k in range(4):
                for C in product(subsets, repeat=k):
                    if set().union(*C) == set(G.nodes):
                        _assert_cover_checks_agree(G, C, part_ok)
                        covers += 1
            whole = G.nodes
            for C in (
                (whole, ()),
                ((), whole, (n + 1,)),
                (whole + whole[:1], whole[::-1]),
                ((0, *whole),),
                (whole, (True,)),
                ((n + 1,), (False,)),
                (whole, (-1,)),
                (whole[:1], (whole[1:] if n > 1 else ()) + (-2,), (3.0,)),
                (whole, ("1",)),
                (tuple(map(_Id, whole)),),
                (whole[:1], tuple(map(_Id, whole[1:]))),
            ):
                _assert_cover_checks_agree(G, C)
                for check, kind in ((is_stable, "stable"), (is_clique, "clique")):
                    part = C[-1]
                    assert _outcome(check, G, part) == _outcome(_reference_part, G, part, kind), (G, part)
    assert covers > 150_000
    with pytest.raises(ValueError, match="kind must be one of"):
        check_cover(house(), (house().nodes,), "chromatic")


def test_optimal_coloring_round_trip():
    for g in (house(), cycle(5), path(4), complete(3)):
        p = graph_parameters(g)
        cover = coloring_to_cover(g, p.chi_witness)
        assert len(cover) == p.chi
        back = cover_to_coloring(g, cover)
        assert len(colors_used(g, back)) == p.chi


def test_stable_cover_never_smaller_than_omega():
    # Any stable cover of G has at least omega(G) parts.
    for g in (house(), cycle(5), complete(4), joined_double_pentagon()):
        p = graph_parameters(g)
        cover = coloring_to_cover(g, p.chi_witness)
        assert len(cover) >= p.omega


def test_subset_tables_match_per_subgraph_parameters():
    # The definitional perfection oracle computes omega/chi for all subsets
    # at once, as level bitsets; it must agree with graph_parameters on
    # each induced subgraph.
    from itertools import combinations

    from pgl import enumerate_graphs
    from pgl.oracles import _definition_levels

    def value(levels, mask):
        # Level k marks the subsets whose value is at most k.
        return next(k for k, z in enumerate(levels) if z >> mask & 1)

    params = {}
    for g in enumerate_graphs(5):
        om, ch = next(_definition_levels(g))
        for r in range(g.n + 1):
            for S in combinations(range(g.n), r):
                mask = sum(1 << i for i in S)
                sub = induced_subgraph(g, [g.nodes[i] for i in S])
                if sub not in params:
                    params[sub] = graph_parameters(sub)
                p = params[sub]
                assert value(om, mask) == p.omega
                assert value(ch, mask) == p.chi


def test_every_stable_cover_has_at_least_omega_parts_exhaustively():
    # All families of distinct stable sets covering a graph on <= 3 vertices.
    from itertools import combinations

    from pgl import enumerate_graphs

    for g in enumerate_graphs(3):
        omega = graph_parameters(g).omega
        stables = [S for r in range(1, 4) for S in combinations(g.nodes, r) if is_stable(g, S)]
        for r in range(1, len(stables) + 1):
            for family in combinations(stables, r):
                if check_cover(g, family, "stable"):
                    assert len(family) >= omega


@given(st.integers(min_value=1, max_value=7))
def test_complete_graph_parameters(n):
    p = graph_parameters(complete(n))
    assert (p.alpha, p.omega, p.chi) == (1, n, n)


@given(st.integers(min_value=3, max_value=9))
def test_cycle_parameters(n):
    p = graph_parameters(cycle(n))
    expected_chi = 2 if n % 2 == 0 else 3
    expected_omega = 3 if n == 3 else 2
    assert p.omega == expected_omega
    assert p.chi == expected_chi
    assert p.alpha == n // 2
