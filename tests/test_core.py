"""Canonical graph type, induced subgraphs, complement, covers."""

import enum
import random
import re
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgl import (
    DanglingEdgeError,
    Graph,
    NotSubsetError,
    SelfLoopError,
    complement,
    induced_subgraph,
    is_induced_subgraph,
    make_graph,
    union_over,
    vertex_set,
)

from conftest import complete, cycle, edgeless, house, path


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    nodes = draw(st.sets(st.integers(min_value=0, max_value=30), min_size=n, max_size=n))
    nodes = sorted(nodes)
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    picked = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return make_graph(nodes, picked)


def test_make_graph_canonicalizes_duplicates_and_order():
    g = make_graph([3, 1, 2, 2], [(3, 1), (1, 3), (2, 3)])
    assert g.nodes == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))


def test_make_graph_pentagon_edge_count():
    assert cycle(5).m == 5


def test_make_graph_edgeless():
    assert edgeless(3).m == 0


def test_make_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        make_graph([1, 2], [(1, 1)])


def test_make_graph_rejects_dangling_endpoint():
    with pytest.raises(DanglingEdgeError):
        make_graph([1, 2], [(1, 3)])


def test_vertex_set_rejects_negative_ids():
    with pytest.raises(ValueError):
        vertex_set([1, -2])


@pytest.mark.parametrize("ids", [[1, "a"], [None, 2], [2.0, 1], [[1], 2], [True, 2]])
def test_vertex_set_rejects_non_integer_ids_before_sorting(ids):
    with pytest.raises(ValueError, match="non-negative integers"):
        vertex_set(ids)
    with pytest.raises(ValueError, match="non-negative integers"):
        make_graph(ids)
    with pytest.raises(ValueError, match="non-negative integers"):
        induced_subgraph(cycle(4), ids)


def test_vertex_set_names_the_least_negative_id():
    with pytest.raises(ValueError, match="got -3"):
        vertex_set([2, -1, -3])


@pytest.mark.parametrize("edge", [(0, 1, 2), (1,), (), 5, None])
def test_make_graph_names_a_malformed_edge(edge):
    with pytest.raises(ValueError, match=re.escape(f"edge must be a pair of vertex ids, got {edge!r}")):
        make_graph([0, 1, 2], [(0, 1), edge])


class _Id(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def test_int_enum_nodes_and_endpoints_are_accepted_like_the_ints_they_equal():
    plain = make_graph([0, 1, 2], [(0, 1), (1, 2)])
    assert vertex_set([_Id.TWO, _Id.ZERO, 1]) == (0, 1, 2)
    assert make_graph([_Id.ZERO, _Id.ONE, 2], [(_Id.ZERO, _Id.ONE), (_Id.ONE, 2)]) == plain
    assert make_graph([0, 1, 2], [(_Id.ZERO, 1), (2, _Id.ONE)]) == plain


@pytest.mark.parametrize("bad", [True, 1.0, "1", -3])
def test_make_graph_and_vertex_set_refuse_other_ids_with_the_same_messages(bad):
    node_message = f"vertex ids must be non-negative integers, got {bad!r}"
    for build in (lambda: vertex_set([0, bad]), lambda: make_graph([0, bad])):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == node_message
    if bad == -3:
        # A negative int passes the type check and is then missing from the nodes.
        expected = [(DanglingEdgeError, "edge (0, -3) endpoint -3 not in nodes"),
                    (DanglingEdgeError, "edge (-3, 1) endpoint -3 not in nodes")]
    else:
        expected = [(ValueError, f"edge endpoints must be integers, got (0, {bad!r})"),
                    (ValueError, f"edge endpoints must be integers, got ({bad!r}, 1)")]
    for edge, (error, message) in zip([(0, bad), (bad, 1)], expected):
        with pytest.raises(error) as caught:
            make_graph([0, 1], [edge])
        assert str(caught.value) == message


def test_repr_lists_nodes_and_edges():
    assert repr(path(3)) == "Graph(nodes=(1, 2, 3), edges=((1, 2), (2, 3)))"


def test_adjacency_queries():
    g = house()
    assert g.adjacent(2, 4) and g.adjacent(4, 2)
    assert not g.adjacent(1, 3)
    assert not g.adjacent(1, 1)
    assert g.neighbors(2) == (1, 3, 4)
    assert g.degree(2) == 3


def test_induced_subgraph_of_cycle_is_path():
    assert induced_subgraph(cycle(5), [1, 2, 3]) == path(3)


def test_induced_subgraph_identity():
    g = house()
    assert induced_subgraph(g, g.nodes) == g


def test_induced_subgraph_house_triangle():
    got = induced_subgraph(house(), [2, 3, 4])
    assert got.edges == ((2, 3), (2, 4), (3, 4))


def test_induced_subgraph_rejects_foreign_vertices():
    with pytest.raises(NotSubsetError):
        induced_subgraph(cycle(4), [1, 9])


def test_complement_of_house_is_open_chain():
    comp = complement(house())
    assert comp.edges == ((1, 3), (1, 4), (2, 5), (3, 5))
    # That edge set is the path 4-1-3-5-2.
    assert sorted(comp.degree(v) for v in comp.nodes) == [1, 1, 2, 2, 2]


def test_complement_of_pentagon_edges():
    assert complement(cycle(5)).edges == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def test_union_over():
    assert union_over([(1, 3), (2, 4)]) == (1, 2, 3, 4)
    assert union_over([]) == ()
    assert union_over([(1, 3), (3, 5), (2, 5), (2, 4), (1, 4)]) == (1, 2, 3, 4, 5)


def test_is_induced_subgraph():
    assert is_induced_subgraph(path(3), cycle(5))
    assert is_induced_subgraph(induced_subgraph(house(), [2, 3, 4]), house())
    assert not is_induced_subgraph(edgeless(2), complete(2))


@given(graphs())
def test_canonicalization_is_idempotent(g):
    assert make_graph(g.nodes, g.edges) == g


@given(graphs())
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_edge_count_identity(g):
    n = g.n
    assert g.m + complement(g).m == n * (n - 1) // 2


@given(graphs(), st.data())
def test_induced_subgraphs_are_accepted(g, data):
    sub = data.draw(st.sets(st.sampled_from(g.nodes), max_size=g.n)) if g.n else set()
    assert is_induced_subgraph(induced_subgraph(g, sub), g)


# Edge-list definitions of the graph operations, which Graph now answers
# from its bitmask rows.  Each takes sorted nodes and canonical edges.


def _ref_canonical_edges(pairs):
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in pairs}))


def _ref_adjacent(edge_set, u, v):
    return (min(u, v), max(u, v)) in edge_set


def _ref_neighbors(edges, v):
    return tuple(sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}))


def _ref_complement(nodes, edges):
    present = set(edges)
    return tuple(p for p in combinations(nodes, 2) if p not in present)


def _ref_induced(edges, S):
    members = set(S)
    return tuple(e for e in edges if e[0] in members and e[1] in members)


def _check_against_edge_lists(nodes, pairs, rng):
    g = make_graph(nodes, pairs)
    edges = _ref_canonical_edges(pairs)
    assert (g.nodes, g.edges, g.m) == (tuple(nodes), edges, len(edges))
    outside = [min(nodes, default=1) - 1, max(nodes, default=0) + 1, 10**6]
    probe = list(nodes) + [v for v in outside if v >= 0 and v not in nodes]
    edge_set = set(edges)
    for u in probe:
        nbrs = _ref_neighbors(edges, u)
        assert (g.neighbors(u), g.degree(u)) == (nbrs, len(nbrs)), (g, u)
        assert [g.adjacent(u, v) for v in probe] == [_ref_adjacent(edge_set, u, v) for v in probe], (g, u)
    comp = complement(g)
    assert (comp.nodes, comp.edges) == (g.nodes, _ref_complement(nodes, edges)), g
    S = rng.sample(list(nodes), rng.randint(0, len(nodes)))
    sub = induced_subgraph(g, S)
    assert (sub.nodes, sub.edges) == (tuple(sorted(S)), _ref_induced(edges, S)), (g, S)
    # Order of nodes, of edges and of endpoints does not matter.
    shuffled_nodes = list(nodes) * 2
    rng.shuffle(shuffled_nodes)
    shuffled_pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs] * 2
    rng.shuffle(shuffled_pairs)
    twin = make_graph(shuffled_nodes, shuffled_pairs)
    assert twin == g and hash(twin) == hash(g), g
    assert Graph(g.nodes, g.bit_adjacency) == g


def test_row_built_graph_matches_edge_lists_exhaustively():
    from pgl.oracles import labeled_pairs

    rng = random.Random(6)
    checked = 0
    for n in range(7):
        pairs = labeled_pairs(n)
        for mask in range(1 << len(pairs)):
            picked = [p for i, p in enumerate(pairs) if mask >> i & 1]
            _check_against_edge_lists(tuple(range(1, n + 1)), picked, rng)
            checked += 1
    assert checked == 33868


def test_row_built_graph_matches_edge_lists_on_sparse_ids():
    rng = random.Random(716)
    for n in range(7, 17):
        for density in (0.2, 0.5, 0.8):
            for _ in range(5):
                nodes = tuple(sorted(rng.sample(range(3, 4 * n + 3), n)))
                picked = [(u, v) for u, v in combinations(nodes, 2) if rng.random() < density]
                _check_against_edge_lists(nodes, picked, rng)


def test_graphs_refuse_assignment_and_deletion():
    from dataclasses import FrozenInstanceError

    g = house()
    g.edges, g.index
    for name in ("nodes", "bit_adjacency", "edges", "index", "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(g, name, ())
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(g, name)
    assert g == house() and g.edges == house().edges


def test_graphs_compare_hash_and_print_by_their_fields():
    g = Graph((1, 2, 3), (2, 1, 0))
    twin = make_graph([3, 2, 1], [(2, 1)])
    assert g == twin and not g != twin and hash(g) == hash(twin) == hash(((1, 2, 3), (2, 1, 0)))
    assert g != Graph((1, 2, 3), (0, 0, 0)) and g != Graph((0, 1, 2), (2, 1, 0))
    assert g != ((1, 2, 3), (2, 1, 0)) and g.__eq__("graph") is NotImplemented
    assert len({g, twin, complement(g)}) == 2
    assert repr(g) == "Graph(nodes=(1, 2, 3), edges=((1, 2),))"


def test_edges_and_index_are_computed_once_per_graph():
    g = cycle(5)
    edges, index = g.edges, g.index
    assert g.edges is edges and g.index is index
    assert edges == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5)) and index == {v: v - 1 for v in range(1, 6)}
    # An equal graph computes its own.
    twin = cycle(5)
    assert twin.edges == edges and twin.edges is not edges


def test_graphs_survive_pickling_and_copying():
    import copy
    import pickle

    g = house()
    g.edges, g.index
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert twin == g and hash(twin) == hash(g) and twin.edges == g.edges and twin.index == g.index
        with pytest.raises(AttributeError):
            twin.nodes = ()
    # A pickle carries the two fields, not the fields computed from them.
    assert len(pickle.dumps(g)) == len(pickle.dumps(Graph(g.nodes, g.bit_adjacency)))


def test_graphs_pickled_as_dataclasses_still_load():
    import pickle
    import weakref

    # Graph(nodes=(1, 2, 3, 5), edges=((1, 2), (2, 5))) with edges and index
    # read, pickled with protocols 2 and 4 when Graph was a frozen dataclass.
    old = [
        b"\x80\x02cpgl.core\nGraph\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00nodesq\x03(K\x01K\x02K\x03K\x05tq\x04"
        b"X\r\x00\x00\x00bit_adjacencyq\x05(K\x02K\tK\x00K\x02tq\x06X\x05\x00\x00\x00edgesq\x07K\x01K\x02\x86q\x08"
        b"K\x02K\x05\x86q\t\x86q\nX\x05\x00\x00\x00indexq\x0b}q\x0c(K\x01K\x00K\x02K\x01K\x03K\x02K\x05K\x03uub.",
        b"\x80\x04\x95~\x00\x00\x00\x00\x00\x00\x00\x8c\x08pgl.core\x94\x8c\x05Graph\x94\x93\x94)\x81\x94}\x94("
        b"\x8c\x05nodes\x94(K\x01K\x02K\x03K\x05t\x94\x8c\rbit_adjacency\x94(K\x02K\tK\x00K\x02t\x94\x8c\x05edges"
        b"\x94K\x01K\x02\x86\x94K\x02K\x05\x86\x94\x86\x94\x8c\x05index\x94}\x94(K\x01K\x00K\x02K\x01K\x03K\x02K\x05K\x03uub.",
    ]
    g = make_graph([1, 2, 3, 5], [(1, 2), (2, 5)])
    for data in old:
        twin = pickle.loads(data)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g) and twin.index == g.index
        assert weakref.ref(twin)() is twin
