"""End-to-end command-line behavior and exit codes."""

import json
import random
import sys

import pytest

from pgl import cli, enumerate_graphs, graph_parameters, invariants, is_perfect, make_graph, parse_graph, GraphDocument
from pgl.cli import run_command
from pgl.invariants import _lovasz_walk

from conftest import run_fresh


@pytest.fixture()
def c5_file(tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text("Dhc\n")
    return str(p)


@pytest.fixture()
def house_file(tmp_path):
    p = tmp_path / "house.el"
    p.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n2 4\n")
    return str(p)


def test_analyze_pentagon(c5_file, capsys):
    assert run_command(["analyze", "--in", c5_file]) == 0
    out = capsys.readouterr().out
    assert out == "alpha=2 omega=2 chi=3 nice=false perfect=false\n"


def test_analyze_house(house_file, capsys):
    assert run_command(["analyze", "--in", house_file]) == 0
    assert capsys.readouterr().out == "alpha=2 omega=3 chi=3 nice=true perfect=true\n"


def _reference_line(g):
    """The analyze line as the two independent engines give it: the α·ω walk and the searches."""
    p = graph_parameters(g)
    words = ["false", "true"]
    line = f"alpha={p.alpha} omega={p.omega} chi={p.chi} nice={words[p.chi == p.omega]} perfect={words[is_perfect(g)]}\n"
    return p, line


def _analyze_graphs():
    """Every graph with n <= 6, then 3,000 seeded graphs with n = 7..16, half of them perfect."""
    yield from (g for n in range(7) for g in enumerate_graphs(n))
    rng = random.Random(1717)
    for n in range(7, 17):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cross = [(u, v) for u, v in pairs if u % 2 != v % 2]
        evens = [(u, v) for u, v in pairs if u % 2 == v % 2 == 0]
        for k in range(300):
            if k < 150:
                density = (0.15, 0.5, 0.85)[k % 3]
                edges = [e for e in pairs if rng.random() < density]
            elif k < 250:  # bipartite, or split with the even vertices a clique
                edges = [e for e in cross if rng.random() < 0.5] + (evens if k % 2 else [])
            else:  # the complement of a bipartite graph
                edges = [e for e in pairs if e not in cross or rng.random() < 0.5]
            yield make_graph(range(n), edges)


def test_the_analyze_line_matches_graph_parameters_and_is_perfect():
    checked = perfect = 0
    for g in _analyze_graphs():
        p, line = _reference_line(g)
        witness, alpha, omega = _lovasz_walk(g, early=False)
        assert (alpha, omega) == (p.alpha, p.omega), g
        assert cli._analyze_line(g) == line, g
        if witness is None:
            perfect += 1
            assert _lovasz_walk(g, early=True) == (None, p.alpha, p.omega)
        checked += 1
    assert checked == 33868 + 3000
    assert perfect > 33868 // 2 + 1500


def test_analyze_on_a_perfect_graph_runs_no_clique_or_coloring_search(tmp_path, monkeypatch, capsys):
    rng = random.Random(2024)
    graphs = {
        "empty.el": "n 0\n",
        "k1.el": "n 1\n",
        "house.el": "1 2\n2 3\n3 4\n4 5\n1 5\n2 4\n",
        "bipartite20.el": "".join(f"{u} {v}\n" for u in range(1, 11) for v in range(11, 21) if rng.random() < 0.5),
        "split15.el": "".join(
            f"{u} {v}\n" for u in range(1, 16) for v in range(u + 1, 16) if v <= 7 or (u <= 7 and rng.random() < 0.5)
        ),
        "k12.col": "p edge 12 66\n" + "".join(f"e {u} {v}\n" for u in range(1, 13) for v in range(u + 1, 13)),
    }
    lines = {}
    for name, text in graphs.items():
        (tmp_path / name).write_text(text)
        g = parse_graph(GraphDocument("dimacs" if name.endswith(".col") else "edgelist", text))
        assert is_perfect(g)
        lines[name] = _reference_line(g)[1]

    def no_search(*args):
        raise AssertionError("analyze searched a perfect graph")

    for name in ("_max_clique", "_chromatic", "_try_color"):
        monkeypatch.setattr(invariants, name, no_search)
    for name in graphs:
        assert run_command(["analyze", "--in", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out == lines[name]
    # An imperfect graph still goes through graph_parameters.
    (tmp_path / "c5.g6").write_text("Dhc\n")
    with pytest.raises(AssertionError, match="analyze searched a perfect graph"):
        run_command(["analyze", "--in", str(tmp_path / "c5.g6")])


def test_analyze_reads_stdin_with_format(monkeypatch, capsys):
    import io, sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\n"))
    assert run_command(["analyze", "--format", "graph6"]) == 0
    assert "alpha=2" in capsys.readouterr().out


def test_certify_and_verify_house(house_file, tmp_path, capsys):
    cert_path = str(tmp_path / "house.cert.json")
    assert run_command(["certify", "--in", house_file, "--out", cert_path]) == 0
    doc = json.loads(open(cert_path).read())
    assert list(doc) == ["alpha", "stable_set", "clique_cover", "complement_coloring"]
    assert doc["alpha"] == 2
    assert doc["stable_set"] == [1, 3]
    assert doc["clique_cover"] == [[1, 5], [2, 3, 4]]
    assert doc["complement_coloring"] == {"1": 0, "2": 1, "3": 1, "4": 1, "5": 0}
    assert run_command(["verify", "--in", house_file, "--cert", cert_path]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_certify_pentagon_fails_with_evidence(c5_file, capsys):
    assert run_command(["certify", "--in", c5_file]) == 1
    out = capsys.readouterr().out
    assert "perfectness failure" in out
    assert "found=4 required=5" in out


def test_verify_rejects_tampered_certificate(house_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert run_command(["certify", "--in", house_file, "--out", cert_path]) == 0
    doc = json.loads(open(cert_path).read())
    doc["complement_coloring"]["5"] = 1
    open(cert_path, "w").write(json.dumps(doc))
    assert run_command(["verify", "--in", house_file, "--cert", cert_path]) == 1
    assert "certificate invalid" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cover, coloring",
    [
        # A coloring of a vertex the graph does not have.
        ([[1], [2, 3]], {"1": 0, "2": 1, "3": 1, "99": 7}),
        # A part that lists a vertex twice.
        ([[1, 1], [2, 3]], {"1": 0, "2": 1, "3": 1}),
    ],
)
def test_verify_rejects_a_certificate_for_another_vertex_set(cover, coloring, tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    p3.write_text("n 3\n1 2\n2 3\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"alpha": 2, "stable_set": [1, 3], "clique_cover": cover, "complement_coloring": coloring}))
    assert run_command(["verify", "--in", str(p3), "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "certificate invalid\n"


def test_replicate_command(c5_file, tmp_path, capsys):
    out_path = str(tmp_path / "out.el")
    assert run_command(
        ["replicate", "--in", c5_file, "--vertex", "3", "--to", "edgelist", "--out", out_path]
    ) == 0
    g = parse_graph(GraphDocument("edgelist", open(out_path).read()))
    assert g.n == 6
    err = capsys.readouterr().err
    assert "replicated 3 -> 5" in err


def test_replicate_unknown_vertex_is_usage_error(c5_file):
    assert run_command(["replicate", "--in", c5_file, "--vertex", "99"]) == 2


def test_expand_command(house_file, capsys):
    assert run_command(["expand", "--in", house_file, "--mult", "1:2,2:1,3:1,4:1,5:1", "--to", "edgelist"]) == 0
    payload = capsys.readouterr().out
    g = parse_graph(GraphDocument("edgelist", payload))
    assert g.n == 6


def test_expand_bad_mult_string(house_file):
    assert run_command(["expand", "--in", house_file, "--mult", "nope"]) == 2
    assert run_command(["expand", "--in", house_file, "--mult", "1:2"]) == 2


def test_separate_command(c5_file, capsys):
    assert run_command(["separate", "--in", c5_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["separated"]["nodes"]) == 10
    assert len(doc["stable_sets"]) == 5
    assert len(doc["disjoint_parts"]) == 5
    assert set(doc["back"].values()) == {0, 1, 2, 3, 4}


def test_separate_past_the_vertex_cap_fails_fast(tmp_path, capsys):
    # Twelve disjoint edges: 2^12 maximum stable sets, 49,152 copies.
    p = tmp_path / "matching.el"
    p.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(12)))
    assert run_command(["separate", "--in", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: separated graph capped at 16384 vertices\n"


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.el"
    a.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    b = tmp_path / "b.el"
    b.write_text("11 12\n12 13\n13 14\n14 15\n11 15\n")
    assert run_command(["iso", "--in", str(a), "--other", str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["forward"]) == {"1", "2", "3", "4", "5"}
    c = tmp_path / "c.el"
    c.write_text("1 2\n2 3\n3 4\n4 5\n")
    assert run_command(["iso", "--in", str(a), "--other", str(c)]) == 1


def test_sweep_command(capsys):
    assert run_command(["sweep", "--prop", "wpgt", "--n", "5", "--mode", "exhaustive"]) == 0
    assert capsys.readouterr().out == "1024 graphs, 0 counterexamples\n"


def test_sweep_random_mode(capsys):
    assert run_command(
        ["sweep", "--prop", "duality", "--n", "6", "--mode", "random", "--seed", "42", "--count", "10"]
    ) == 0
    assert capsys.readouterr().out == "10 graphs, 0 counterexamples\n"


def test_sweep_rejects_negative_bounds(capsys):
    assert run_command(["sweep", "--prop", "wpgt", "--n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex count must be non-negative, got -1\n"
    assert run_command(
        ["sweep", "--prop", "wpgt", "--n", "3", "--mode", "random", "--count", "-5"]
    ) == 2
    assert capsys.readouterr().err == "error: graph count must be non-negative, got -5\n"


def test_sweep_past_the_exhaustive_cap_fails_fast(capsys):
    # 2^36 graphs at n = 9: without the cap check this never returns.
    for jobs in ("1", "2"):
        assert run_command(["sweep", "--prop", "duality", "--n", "9", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exhaustive enumeration capped at 6 vertices\n"
    # The cap bounds exhaustive streams only.
    assert run_command(["sweep", "--prop", "duality", "--n", "9", "--mode", "random", "--count", "2"]) == 0
    assert capsys.readouterr().out == "2 graphs, 0 counterexamples\n"


def test_sweep_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_command(
        ["sweep", "--prop", "duality", "--n", "3", "--json", str(out)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc == {
        "properties": ["duality"],
        "n": 3,
        "mode": "exhaustive",
        "graphs_checked": 8,
        "counterexamples": [],
    }


def test_convert_command(c5_file, capsys):
    # graph6 nodes are 0-based; DIMACS output relabels them to 1..5.
    assert run_command(["convert", "--in", c5_file, "--to", "dimacs"]) == 0
    assert capsys.readouterr().out == "p edge 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n"


def test_convert_round_trip_bytes(house_file, capsys):
    assert run_command(["convert", "--in", house_file, "--to", "graph6"]) == 0
    first = capsys.readouterr().out
    assert run_command(["convert", "--in", house_file, "--to", "graph6"]) == 0
    assert capsys.readouterr().out == first


def test_analyze_past_the_perfection_cap_fails_before_searching(tmp_path, monkeypatch, capsys):
    def no_search(G):
        raise AssertionError("graph_parameters ran past the perfection cap")

    monkeypatch.setattr("pgl.cli.graph_parameters", no_search)
    big = tmp_path / "bipartite24.el"
    big.write_text("".join(f"{u} {v}\n" for u in range(1, 13) for v in range(13, 25)))
    assert run_command(["analyze", "--in", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: perfection check capped at 20 vertices\n"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2\n")
    assert run_command(["analyze", "--in", str(bad)]) == 2


def test_self_loop_input_exit_code(tmp_path):
    bad = tmp_path / "bad2.col"
    bad.write_text("p edge 2 1\ne 1 1\n")
    assert run_command(["analyze", "--in", str(bad)]) == 2


def test_iso_past_the_recursion_limit_is_an_error_not_a_verdict(tmp_path, capsys):
    path = tmp_path / "path.el"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 1200)))
    assert run_command(["iso", "--in", str(path), "--other", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input too deep for the recursive search (Python recursion limit)\n"


def test_certify_past_the_recursion_limit_is_an_error_not_evidence(tmp_path, capsys):
    # The stable-set search recurses once per vertex of an edgeless
    # graph; a lowered limit makes a 300-vertex graph hit it in well
    # under a second, where 1200 vertices at the default limit take 20 s.
    edgeless = tmp_path / "edgeless.el"
    edgeless.write_text("n 300\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        status = run_command(["certify", "--in", str(edgeless)])
    finally:
        sys.setrecursionlimit(limit)
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input too deep for the recursive search (Python recursion limit)\n"


def test_usage_error_exit_code():
    assert run_command(["analyze", "--bogus"]) == 2
    assert run_command([]) == 2


def test_missing_file_exit_code():
    assert run_command(["analyze", "--in", "/nonexistent/x.g6"]) == 2


@pytest.mark.parametrize("props", ["", " , "])
def test_sweep_rejects_an_empty_property_list(props, capsys):
    assert run_command(["sweep", "--prop", props, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no property given; known: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"alpha": 1, "stable_set": [1], "clique_cover": [[0]], "complement_coloring": []},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[0]], "complement_coloring": "0"},
        {"alpha": 1, "stable_set": [1], "clique_cover": {"0": 0}, "complement_coloring": {"0": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": ["0"], "complement_coloring": {"0": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": "0", "complement_coloring": {"0": 0}},
        # Each case below differs from a valid K1 certificate only in the
        # type of one value, which int() used to coerce.
        {"alpha": 1.9, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1.0, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": True, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": "1", "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [["1"]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1.0]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[True]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": True}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": 0.0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": "0"}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"01": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"+1": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {" 1": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1_0": 0}},
        {"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"\u0661": 0}},
        # The stable-set witness: missing, not a list, or a member that is
        # not a non-negative integer.
        {"alpha": 1, "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": 1, "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": {"1": 1}, "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": "1", "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": True, "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [True], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [1.0], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": ["1"], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        {"alpha": 1, "stable_set": [-1], "clique_cover": [[1]], "complement_coloring": {"1": 0}},
        # A negative cover vertex is malformed too, like a negative stable-set vertex.
        {"alpha": 1, "stable_set": [1], "clique_cover": [[0, -1]], "complement_coloring": {"1": 0}},
    ],
)
def test_verify_rejects_a_wrongly_typed_certificate(doc, tmp_path, capsys):
    g = tmp_path / "k1.el"
    g.write_text("n 1\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert run_command(["verify", "--in", str(g), "--cert", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 1, column 1: malformed certificate: ")


def test_expand_rejects_multiplicities_for_unknown_vertices(tmp_path, capsys):
    k2 = tmp_path / "k2.g6"
    k2.write_text("A_\n")
    assert run_command(["expand", "--in", str(k2), "--mult", "0:2,1:1,99:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multiplicity given for vertex 99, which is not in graph\n"
    assert run_command(["expand", "--in", str(k2), "--mult", "0:2,1:1"]) == 0


def test_expand_rejects_a_vertex_given_twice(tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    p3.write_text("0 1\n1 2\n")
    assert run_command(["expand", "--in", str(p3), "--mult", "0:1,1:2,2:1,1:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 1, column 1: multiplicity given twice for vertex 1\n"


def test_verify_accepts_the_well_typed_k1_certificate(tmp_path, capsys):
    g = tmp_path / "k1.el"
    g.write_text("n 1\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"alpha": 1, "stable_set": [1], "clique_cover": [[1]], "complement_coloring": {"1": 0}}))
    assert run_command(["verify", "--in", str(g), "--cert", str(cert)]) == 0
    assert capsys.readouterr().out == "certificate ok\n"


def test_sweep_checks_a_repeated_property_once(monkeypatch, tmp_path, capsys):
    from pgl.sweeps import PROPERTIES

    calls = []

    def no_triangle(G):
        calls.append(G)
        return "triangle present" if G.m == 3 else None

    monkeypatch.setitem(PROPERTIES, "no-triangle", no_triangle)
    report = tmp_path / "sweep.json"
    argv = ["sweep", "--prop", "no-triangle,wpgt,no-triangle", "--n", "3", "--json", str(report)]
    assert run_command(argv) == 1
    assert capsys.readouterr().out == (
        "8 graphs, 1 counterexamples\n"
        "counterexample index=7 property=no-triangle graph6=Bw evidence=triangle present\n"
    )
    assert len(calls) == 8
    doc = json.loads(report.read_text())
    assert doc["properties"] == ["no-triangle", "wpgt"]
    assert len(doc["counterexamples"]) == 1


def _outcome(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once_and_answers_like_a_fresh_one(tmp_path, capsys):
    house = tmp_path / "house.el"
    house.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n2 4\n")
    c5 = tmp_path / "c5.g6"
    c5.write_text("Dhc\n")
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"alpha": 2, "stable_set": [1, 3], "clique_cover": [[1, 5], [2, 3, 4]],
                                "complement_coloring": {"1": 0, "2": 1, "3": 1, "4": 1, "5": 0}}))
    cases = [
        ["analyze", "--in", str(house)],
        ["analyze", "--bogus"],
        ["analyze", "--in", str(bad)],
        ["analyze", "--help"],
        ["certify", "--in", str(house)],
        ["certify", "--in", str(c5)],
        ["certify", "--in", str(bad)],
        ["certify", "--help"],
        ["verify", "--in", str(house), "--cert", str(cert)],
        ["verify", "--in", str(house)],
        ["verify", "--in", str(c5), "--cert", str(cert)],
        ["verify", "--help"],
        ["sweep", "--prop", "wpgt,pipeline", "--n", "4"],
        ["sweep", "--prop", "wpgt", "--n", "3", "--bogus"],
        ["sweep", "--prop", "nope", "--n", "3"],
        ["sweep", "--help"],
        ["convert", "--in", str(house), "--to", "graph6"],
        ["convert", "--in", str(house), "--to", "nope"],
        ["convert", "--in", str(bad), "--to", "dimacs"],
        ["convert", "--help"],
        ["expand", "--in", str(house), "--mult", "1:2"],
        ["expand", "--in", str(house), "--mult", "nope"],
        ["--help"],
        [],
    ]
    fresh = []
    for argv in cases:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    # Each case twice, in a fixed shuffled order, on one cached parser.
    cli._build_parser.cache_clear()
    order = list(range(len(cases))) * 2
    random.Random(6).shuffle(order)
    for i in order:
        assert _outcome(cases[i], capsys) == fresh[i], cases[i]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(order) - 1)
    assert {code for code, _, _ in fresh} == {0, 1, 2}


@pytest.mark.parametrize("built", [False, True])
def test_handlers_see_patched_names_whether_or_not_the_parser_was_built(built, tmp_path, monkeypatch, capsys):
    cli._build_parser.cache_clear()
    if built:
        cli._build_parser()

    def no_search(G):
        raise AssertionError("graph_parameters ran past the perfection cap")

    monkeypatch.setattr("pgl.cli.graph_parameters", no_search)
    big = tmp_path / "bipartite24.el"
    big.write_text("".join(f"{u} {v}\n" for u in range(1, 13) for v in range(13, 25)))
    assert _outcome(["analyze", "--in", str(big)], capsys) == (
        2, "", "error: perfection check capped at 20 vertices\n"
    )


def test_importing_the_cli_loads_only_the_standard_library_and_no_process_pool():
    out = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import pgl.cli\n"
        "pool = [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]\n"
        "print(json.dumps([sorted(set(sys.modules) - before), pool]))\n"
    )
    loaded, pool = json.loads(out)
    assert "pgl.cli" in loaded
    outside = [m for m in loaded if m.partition(".")[0] not in sys.stdlib_module_names | {"pgl"}]
    assert outside == []
    assert pool == []
