"""graph6, DIMACS and edge-list round trips; DOT export."""

import pytest

from pgl import (
    DanglingEdgeError,
    GraphDocument,
    ParseError,
    SelfLoopError,
    emit_graph,
    make_graph,
    parse_graph,
    relabel_graph,
)
from pgl.formats import infer_format

from conftest import cycle, house


def reference_graph6(n, edges):
    """Tiny independent graph6 encoder used as the test oracle."""
    assert n <= 62
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edges or (j, i) in edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val * 2 + b
        out.append(chr(63 + val))
    return "".join(out)


def test_graph6_pentagon_literal():
    pentagon0 = make_graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    expected = reference_graph6(5, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})
    assert expected == "Dhc"
    doc = emit_graph(pentagon0, "graph6")
    assert doc.payload == "Dhc"
    assert doc.relabeling is None
    assert parse_graph(doc) == pentagon0


def test_graph6_house_literal():
    doc = emit_graph(house(), "graph6")
    assert doc.payload == "Djc"
    assert doc.relabeling == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    assert parse_graph(doc) == relabel_graph(house(), doc.relabeling)


def test_graph6_known_payload_round_trips():
    doc = GraphDocument("graph6", "DQc")
    g = parse_graph(doc)
    assert g.n == 5
    assert g.edges == ((0, 2), (0, 4), (1, 3), (3, 4))
    assert emit_graph(g, "graph6").payload == "DQc"


def test_graph6_empty_and_single():
    empty = make_graph([])
    assert emit_graph(empty, "graph6").payload == "?"
    assert parse_graph(GraphDocument("graph6", "?")) == empty
    single = make_graph([0])
    assert emit_graph(single, "graph6").payload == "@"
    assert parse_graph(GraphDocument("graph6", "@")) == single


def test_graph6_optional_header_accepted():
    assert parse_graph(GraphDocument("graph6", ">>graph6<<Dhc")).m == 5


def test_graph6_long_size_header():
    g = make_graph(range(70))
    doc = emit_graph(g, "graph6")
    assert doc.payload.startswith("~")
    assert parse_graph(doc) == g


def test_graph6_rejects_bad_payloads():
    with pytest.raises(ParseError):
        parse_graph(GraphDocument("graph6", ""))
    with pytest.raises(ParseError):
        parse_graph(GraphDocument("graph6", "D" + chr(40)))
    with pytest.raises(ParseError):
        parse_graph(GraphDocument("graph6", "Dhcc"))
    with pytest.raises(ParseError):
        parse_graph(GraphDocument("graph6", "Dh"))
    # K2 is "A_"; the five padding bits after its one edge bit must be zero.
    with pytest.raises(ParseError, match="padding"):
        parse_graph(GraphDocument("graph6", "A~"))


def test_dimacs_round_trip():
    g = cycle(5)
    doc = emit_graph(g, "dimacs")
    assert doc.payload == "p edge 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n"
    assert doc.relabeling is None
    assert parse_graph(doc) == g


def test_dimacs_parses_comments_and_isolated_vertices():
    text = "c a comment\np edge 4 1\ne 2 3\n"
    g = parse_graph(GraphDocument("dimacs", text))
    assert g.nodes == (1, 2, 3, 4)
    assert g.edges == ((2, 3),)


def test_dimacs_self_loop_propagates():
    with pytest.raises(SelfLoopError):
        parse_graph(GraphDocument("dimacs", "p edge 2 1\ne 1 1\n"))


def test_dimacs_dangling_edge_propagates():
    with pytest.raises(DanglingEdgeError):
        parse_graph(GraphDocument("dimacs", "p edge 2 1\ne 1 5\n"))


def test_dimacs_rejects_malformed_documents():
    for text in (
        "e 1 2\n",
        "p edge 2\n",
        "p edge 2 1\ne 1 2\ne 1 2\n",
        "p edge 2 0\nx\n",
        "p edge a 0\n",
        "p edge -3 0\n",
    ):
        with pytest.raises(ParseError):
            parse_graph(GraphDocument("dimacs", text))


def test_dimacs_error_carries_line_number():
    try:
        parse_graph(GraphDocument("dimacs", "p edge 2 0\nwhat\n"))
    except ParseError as exc:
        assert exc.line == 2
    else:
        raise AssertionError("expected ParseError")


def test_edgelist_round_trip_without_header():
    g = parse_graph(GraphDocument("edgelist", "1 2\n2 3\n"))
    assert g.nodes == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 3))
    doc = emit_graph(g, "edgelist")
    assert doc.payload == "1 2\n2 3\n"
    assert doc.relabeling is None


def test_edgelist_header_preserves_isolated_vertices():
    g = make_graph(range(1, 5), [(1, 2)])
    doc = emit_graph(g, "edgelist")
    assert doc.payload == "n 4\n1 2\n"
    assert parse_graph(doc) == g


def test_edgelist_empty_graph():
    doc = emit_graph(make_graph([]), "edgelist")
    assert doc.payload == "n 0\n"
    assert parse_graph(doc) == make_graph([])


def test_edgelist_noncontiguous_nodes_relabel():
    g = make_graph([2, 7, 9], [(2, 7)])
    doc = emit_graph(g, "edgelist")
    assert doc.relabeling == {2: 1, 7: 2, 9: 3}
    assert parse_graph(doc) == relabel_graph(g, doc.relabeling)


def test_edgelist_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_graph(GraphDocument("edgelist", "1 2 3\n"))
    with pytest.raises(ParseError):
        parse_graph(GraphDocument("edgelist", "n x\n"))
    with pytest.raises(ParseError, match="^line 2, column 1: vertex count must be non-negative, got -4$"):
        parse_graph(GraphDocument("edgelist", "# header\nn -4\n"))


def test_dot_export():
    doc = emit_graph(cycle(3), "dot")
    assert doc.payload == "graph {\n  1;\n  2;\n  3;\n  1 -- 2;\n  1 -- 3;\n  2 -- 3;\n}\n"
    with pytest.raises(ParseError):
        parse_graph(doc)
    pentagon_dot = emit_graph(cycle(5), "dot").payload
    assert pentagon_dot.count(";") == 10  # five nodes, five undirected edges
    assert pentagon_dot.count("--") == 5


def test_format_aliases():
    g = cycle(4)
    assert emit_graph(g, "dimacs-col").format == "dimacs"
    assert emit_graph(g, "edge-list").format == "edgelist"
    with pytest.raises(ValueError):
        emit_graph(g, "sparse6")


def test_infer_format():
    assert infer_format("x.g6", None) == "graph6"
    assert infer_format("x.col", None) == "dimacs"
    assert infer_format("x.el", None) == "edgelist"
    assert infer_format(None, "p edge 3 0\n") == "dimacs"
    assert infer_format(None, "n 3\n") == "edgelist"
    assert infer_format(None, "1 2\n") == "edgelist"
    assert infer_format(None, "Dhc\n") == "graph6"
    with pytest.raises(ValueError):
        infer_format(None, "")


def test_round_trip_over_exhaustive_four_vertex_corpus():
    from pgl import enumerate_graphs

    for g in enumerate_graphs(4):
        for fmt in ("graph6", "dimacs", "edgelist"):
            doc = emit_graph(g, fmt)
            parsed = parse_graph(doc)
            expected = relabel_graph(g, doc.relabeling) if doc.relabeling else g
            assert parsed == expected
            # Emission is byte-stable.
            assert emit_graph(g, fmt).payload == doc.payload
