"""graph6, DIMACS and edge-list round trips; DOT export."""

import random

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
    assert n <= 258047
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edges or (j, i) in edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)] if n <= 62 else ["~", *(chr(63 + (n >> shift) % 64) for shift in (12, 6, 0))]
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


# Each bad payload with the message and column it must be refused with.
_BAD_GRAPH6 = [
    ("", "empty graph6 payload", 1),
    (" >>graph6<<", "empty graph6 payload", 1),
    ("D" + chr(40), "invalid graph6 character '('", 2),
    ("Dh c", "invalid graph6 character ' '", 3),
    # A bad character is reported before a bad size header or body.
    ("~~\u00e9", "invalid graph6 character '\u00e9'", 3),
    ("~~", "unsupported or truncated graph6 size header", 1),
    ("~AB", "unsupported or truncated graph6 size header", 1),
    ("Dhcc", "graph6 body for 5 vertices needs 2 characters, got 3", 2),
    ("Dh", "graph6 body for 5 vertices needs 2 characters, got 1", 2),
    ("~?A?", "graph6 body for 128 vertices needs 1355 characters, got 0", 5),
    # K2 is "A_"; the five padding bits after its one edge bit must be zero.
    ("A~", "graph6 padding bits must be zero", 2),
    ("AO", "graph6 padding bits must be zero", 2),
    ("Dhd", "graph6 padding bits must be zero", 3),
    ("Dhe", "graph6 padding bits must be zero", 3),
]


def test_graph6_rejects_bad_payloads():
    for payload, message, column in _BAD_GRAPH6:
        with pytest.raises(ParseError) as caught:
            parse_graph(GraphDocument("graph6", payload))
        assert str(caught.value) == f"line 1, column {column}: {message}", payload
        assert (caught.value.line, caught.value.column) == (1, column), payload


def test_graph6_rows_match_the_edge_built_graph_on_all_small_graphs():
    checked = 0
    for n in range(7):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            edges = {p for k, p in enumerate(pairs) if mask >> k & 1}
            g = parse_graph(GraphDocument("graph6", reference_graph6(n, edges)))
            expected = make_graph(range(n), edges)
            assert (g.nodes, g.bit_adjacency) == (expected.nodes, expected.bit_adjacency), edges
            checked += 1
    assert checked == 33868


@pytest.mark.parametrize("n", [62, 63, 100])
def test_graph6_rows_match_the_edge_built_graph_at_long_header_sizes(n):
    rng = random.Random(n)
    for density in (0.0, 0.1, 0.5, 0.9, 1.0):
        edges = {(i, j) for j in range(n) for i in range(j) if rng.random() < density}
        payload = reference_graph6(n, edges)
        assert payload.startswith("~") == (n > 62)
        g = parse_graph(GraphDocument("graph6", payload))
        expected = make_graph(range(n), edges)
        assert (g.nodes, g.bit_adjacency) == (expected.nodes, expected.bit_adjacency)
        assert emit_graph(g, "graph6").payload == payload


def test_graph6_rows_match_the_edge_built_graph_on_both_sides_of_the_edge_loop_limit():
    from pgl.formats import _G6_BITS, _G6_EDGE_LOOP_MAX_N, _g6_rows_by_transpose

    rng = random.Random(6)
    for n in [*range(8), _G6_EDGE_LOOP_MAX_N, _G6_EDGE_LOOP_MAX_N + 1, 40]:
        for density in (0.0, 0.3, 0.7, 1.0):
            edges = {(i, j) for j in range(n) for i in range(j) if rng.random() < density}
            payload = reference_graph6(n, edges)
            rows = make_graph(range(n), edges).bit_adjacency
            assert parse_graph(GraphDocument("graph6", payload)).bit_adjacency == rows, (n, edges)
            # The transposition also reads the graphs that the edge loop takes.
            assert _g6_rows_by_transpose(payload[1:].translate(_G6_BITS), n) == rows, (n, edges)


@pytest.mark.parametrize("n", [1000, 2000])
def test_graph6_round_trips_at_thousands_of_vertices(n):
    rng = random.Random(n)
    g = make_graph(range(n), [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
    payload = emit_graph(g, "graph6").payload
    back = parse_graph(GraphDocument("graph6", payload))
    assert (back.nodes, back.bit_adjacency) == (g.nodes, g.bit_adjacency)
    assert emit_graph(back, "graph6").payload == payload


def _graph6_emission_cases():
    for n in range(7):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            yield n, {p for k, p in enumerate(pairs) if mask >> k & 1}
    for n in (62, 63, 64, 200):
        rng = random.Random(n)
        for density in (0.0, 0.5, 1.0):
            yield n, {(i, j) for j in range(n) for i in range(j) if rng.random() < density}


def test_graph6_emission_matches_the_reference_encoder():
    for n, edges in _graph6_emission_cases():
        payload = reference_graph6(n, edges)
        assert emit_graph(make_graph(range(n), edges), "graph6").payload == payload, edges
        # The same graph on the ids 5, 8, 11, ... relabels to the same payload.
        shifted = make_graph(range(5, 5 + 3 * n, 3), [(5 + 3 * i, 5 + 3 * j) for i, j in edges])
        assert emit_graph(shifted, "graph6").payload == payload, edges


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
        # A count past the largest graph6 size is refused before any vertex is built.
        "p edge 100000000 0\n",
        "p edge 258048 0\n",
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
    with pytest.raises(ParseError, match="^line 1, column 1: vertex count capped at 258047, got 100000000$"):
        parse_graph(GraphDocument("edgelist", "n 100000000\n"))


def test_declared_vertex_counts_parse_up_to_the_graph6_cap():
    assert parse_graph(GraphDocument("dimacs", "p edge 258047 0\n")).n == 258047
    assert parse_graph(GraphDocument("edgelist", "n 258047\n1 258047\n")).m == 1
    with pytest.raises(ParseError, match="^line 1, column 1: vertex count capped at 258047, got 258048$"):
        parse_graph(GraphDocument("edgelist", "n 258048\n"))


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


# ---------------------------------------------------------------------------
# The text decoders against the per-token loop they replaced, which built
# the graph through make_graph.


def _reference_int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line=lineno) from None


def _reference_count(token, lineno):
    count = _reference_int(token, lineno)
    if count < 0:
        raise ParseError(f"vertex count must be non-negative, got {count}", line=lineno)
    if count > 258047:
        raise ParseError(f"vertex count capped at 258047, got {count}", line=lineno)
    return count


def _reference_dimacs(payload):
    n = None
    declared = 0
    edges = []
    for lineno, raw in enumerate(payload.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("problem line must be 'p edge <n> <m>'", line=lineno)
            n, declared = _reference_count(tokens[2], lineno), _reference_int(tokens[3], lineno)
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", line=lineno)
            if len(tokens) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", line=lineno)
            edges.append((_reference_int(tokens[1], lineno), _reference_int(tokens[2], lineno)))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    if len(edges) != declared:
        raise ParseError(f"declared {declared} edges, found {len(edges)}")
    return make_graph(range(1, n + 1), edges)


def _reference_edgelist(payload):
    declared = None
    edges = []
    seen_any = False
    for lineno, raw in enumerate(payload.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not seen_any and tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError("header must be 'n <count>'", line=lineno)
            declared = _reference_count(tokens[1], lineno)
            seen_any = True
            continue
        seen_any = True
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        edges.append((_reference_int(tokens[0], lineno), _reference_int(tokens[1], lineno)))
    if declared is not None:
        return make_graph(range(1, declared + 1), edges)
    return make_graph({v for e in edges for v in e}, edges)


# Lines that break a document, by kind; a line is put in at a random place.
_DIMACS_FAULTS = {
    "bad integer": ["e 1 x", "e y 2", "e 1 2.0", "p edge a 1", "p edge 3 b"],
    "wrong arity": ["e 1", "e 1 2 3", "p edge 3", "p edge 3 1 1", "p node 3 1"],
    "unrecognized line": ["x 1 2", "edge 1 2", "1 2"],
    "self-loop": ["e 2 2", "e 9 9"],
    "dangling endpoint": ["e 1 99", "e 0 1", "e -1 2"],
    "negative count": ["p edge -2 0"],
    "over-cap count": ["p edge 258048 0", "p edge 100000000 0"],
}
_EDGELIST_FAULTS = {
    "bad integer": ["1 x", "y 2", "n q", "3 2.5"],
    "wrong arity": ["1 2 3", "1", "n", "n 3 4"],
    "self-loop": ["2 2", "7 7"],
    "dangling endpoint": ["1 99"],
    "negative id": ["-1 2", "3 -4"],
    "negative count": ["n -4"],
    "over-cap count": ["n 258048"],
}


def _text_document(rng, dimacs, header):
    """Lines of a seeded document: repeated and reversed pairs, declared isolated vertices."""
    n = rng.randrange(0, 9)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
    pairs += rng.sample(pairs, min(len(pairs), rng.randrange(3)))
    pairs = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in pairs]
    rng.shuffle(pairs)
    declared = n + rng.randrange(3)
    if dimacs:
        return [f"p edge {declared} {len(pairs)}"] + [f"e {u} {v}" for u, v in pairs]
    return ([f"n {declared}"] if header else []) + [f"{u} {v}" for u, v in pairs]


def _dressed(rng, lines, comment):
    """The lines with comments, blank lines and stray whitespace, joined by LF or CRLF."""
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice([comment, f"{comment} a comment", "", "   ", "\t"]))
        out.append(rng.choice(["", " ", "\t"]) + line.replace(" ", rng.choice([" ", "  ", "\t"])) + rng.choice(["", " "]))
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(out) + rng.choice([eol, ""])


def _decoded(decode, payload):
    try:
        return decode(payload)
    except (ValueError, ParseError, SelfLoopError, DanglingEdgeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_text_decoders_match_the_per_token_reference(fmt):
    dimacs = fmt == "dimacs"
    reference = _reference_dimacs if dimacs else _reference_edgelist
    faults = _DIMACS_FAULTS if dimacs else _EDGELIST_FAULTS
    comment = "c" if dimacs else "#"
    rng = random.Random(f"decoders-{fmt}")
    raised = {kind: 0 for kind in faults}
    structural = {"edge before p", "duplicate p", "wrong edge count", "missing p"} if dimacs else set()
    raised.update(dict.fromkeys(structural, 0))
    graphs = 0
    for trial in range(1500):
        lines = _text_document(rng, dimacs, header=trial % 2 == 0)
        kind = None if rng.random() < 0.4 else rng.choice(list(raised))
        if kind in faults:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(faults[kind]))
        elif kind == "edge before p" and len(lines) > 1:
            lines.insert(0, lines.pop())
        elif kind == "duplicate p":
            lines.insert(rng.randrange(1, len(lines) + 1), lines[0])
        elif kind == "wrong edge count":
            lines[0] = f"p edge 9 {len(lines) - 1 + rng.choice([-1, 1, 5])}"
        elif kind == "missing p":
            lines.pop(0)
        payload = _dressed(rng, lines, comment)
        want = _decoded(reference, payload)
        assert _decoded(lambda text: parse_graph(GraphDocument(fmt, text)), payload) == want, payload
        if isinstance(want, tuple):
            raised[kind] = raised.get(kind, 0) + 1
        else:
            graphs += 1
    # Every kind of fault was met and raised, and most documents parsed.
    assert all(raised.values()), raised
    assert graphs > 400
