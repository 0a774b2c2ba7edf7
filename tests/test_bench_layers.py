"""The layer-benchmark harness in tools/: its registry, rows and results."""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import json
import math
import os

import pytest

import pgl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pgl.__file__)))
ROW_FIELDS = {"case", "family", "n", "graphs", "result", "median_ms", "child_ms", "repeats", "peak_rss_kib"}

_spec = importlib.util.spec_from_file_location("bench_layers", os.path.join(ROOT, "tools", "bench_layers.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _committed_rows(name: str) -> list[dict]:
    with open(os.path.join(ROOT, name)) as fh:
        return [row for tree in json.load(fh).values() for row in tree["cases"]]


def _case_key(row: dict) -> tuple[str, str | None, int]:
    """The (case, family, n) a committed row was written for."""
    if "function" in row:
        return row["function"], row["family"], row["n"]
    if row["case"].startswith("sweep-"):
        return row["case"], None, row["n"]
    if "family" in row:
        return row["case"], row["family"], row["n"]
    return "oracle_parameters", row["case"], row["n"]


def _layer_records() -> dict[str, set[tuple[str, str | None, int]]]:
    """The (case, family, n) keys of the rows of each committed layer record, by file name.

    A BENCH_*.json is either a layer record, one tree of rows per source,
    or a record of end-to-end pairs; anything else is malformed.
    """
    records = {}
    for name in sorted(glob.glob("BENCH_*.json", root_dir=ROOT)):
        with open(os.path.join(ROOT, name)) as fh:
            record = json.load(fh)
        if {"what", "runs"} <= set(record):
            continue
        assert all(isinstance(tree, dict) and "cases" in tree for tree in record.values()), name
        records[name] = {_case_key(row) for row in _committed_rows(name)}
    return records


def test_every_committed_row_names_a_registry_case():
    registry = {(case.name, case.family, case.n) for case in bench.CASES}
    records = _layer_records()
    for keys in records.values():
        assert keys
        assert sorted(keys - registry) == []
    # Every registry case is recorded somewhere.
    assert sorted(registry - set().union(*records.values())) == []
    layer_files = set(records)
    assert {
        "BENCH_perfection.json",
        "BENCH_oracles.json",
        "BENCH_sweep_layers.json",
        "BENCH_sweep_checks.json",
        "BENCH_verify.json",
        "BENCH_analyze.json",
        "BENCH_pipeline.json",
        "BENCH_sweep_once.json",
        "BENCH_definition.json",
        "BENCH_oracle_indicators.json",
        "BENCH_expansion_host.json",
        "BENCH_layers.json",
        "BENCH_one_check.json",
        "BENCH_oracle_chi.json",
        "BENCH_color_classes.json",
        "BENCH_walk.json",
        "BENCH_graph6.json",
        "BENCH_berge_replication.json",
        "BENCH_certify_io.json",
        "BENCH_walk_step.json",
        "BENCH_cli_dispatch.json",
        "BENCH_size_table.json",
        "BENCH_small_steps.json",
        "BENCH_oracle_tables.json",
        "BENCH_graph_values.json",
    } <= layer_files


def test_a_run_writes_the_documented_rows_and_the_in_process_results(tmp_path):
    out = tmp_path / "layers.json"
    argv = ["--src", f"here={SRC}", "--min-seconds", "0", "--out", str(out)]
    assert bench.main(argv + ["--case", "clique_number", "--case", "emit-graph6"]) == 0
    rows = json.loads(out.read_text())["here"]["cases"]
    assert [(row["case"], row["n"]) for row in rows] == [
        ("clique_number", 40), ("clique_number", 44), ("clique_number", 48),
        ("emit-graph6", 200), ("emit-graph6", 400),
    ]
    assert all(set(row) == ROW_FIELDS and row["repeats"] == bench.CHILDREN and row["graphs"] == 1 for row in rows)
    for row, case in zip(rows[:3], [c for c in bench.CASES if c.name == "clique_number"]):
        (edges,) = bench.edge_lists(case)
        assert row["result"] == pgl.clique_number(pgl.make_graph(range(case.n), edges))
    assert all(len(row["result"]) == 16 for row in rows[3:])


def test_each_pair_runs_in_three_children_that_alternate_the_trees(tmp_path, monkeypatch):
    children = []

    def run_case(src, case, min_s):
        children.append((os.path.basename(src), case.n))
        # The three children of each tree read 5, 1 and 3 ms, and peaks of 50, 10 and 30 KiB.
        ms = {0: 5.0, 1: 1.0, 2: 3.0}[sum(n == case.n for _, n in children[:-1]) // 2]
        return {"case": case.name, "family": case.family, "n": case.n, "graphs": case.graphs,
                "result": 7, "median_ms": ms, "repeats": 2, "peak_rss_kib": int(ms * 10)}

    monkeypatch.setattr(bench, "run_case", run_case)
    out = tmp_path / "layers.json"
    argv = ["--src", "a=/x/parent", "--src", "b=/x/change", "--case", "clique_number", "--out", str(out)]
    assert bench.main(argv) == 0
    assert bench.CHILDREN == 3
    assert children == [
        ("parent", 40), ("change", 40), ("change", 40), ("parent", 40), ("parent", 40), ("change", 40),
        ("change", 44), ("parent", 44), ("parent", 44), ("change", 44), ("change", 44), ("parent", 44),
        ("parent", 48), ("change", 48), ("change", 48), ("parent", 48), ("parent", 48), ("change", 48),
    ]
    runs = json.loads(out.read_text())
    for tree in ("a", "b"):
        rows = runs[tree]["cases"]
        assert [(row["n"], row["result"], row["median_ms"], row["repeats"], row["peak_rss_kib"]) for row in rows] == [
            (n, 7, 3.0, 6, 30) for n in (40, 44, 48)
        ]
        assert [row["child_ms"] for row in rows] == [[5.0, 1.0, 3.0]] * 3


def test_a_pair_whose_children_disagree_reads_as_an_error():
    rows = [{"case": "c", "result": r, "median_ms": 1.0, "repeats": 1, "peak_rss_kib": 0} for r in (1, 1, 2)]
    assert bench.merged(rows) == {"case": "c", "result": "error: the children disagree",
                                  "median_ms": None, "child_ms": None, "repeats": None, "peak_rss_kib": None}


def test_the_committed_perfection_results_are_reproduced_up_to_twelve_vertices():
    committed = {
        _case_key(row): row["result"]
        for row in _committed_rows("BENCH_perfection.json")
        if row["function"] == "is_perfect" and row["n"] <= 12
    }
    cases = [c for c in bench.CASES if c.name == "is_perfect" and c.n <= 12]
    assert len(cases) == len(committed) == 11
    for case in cases:
        assert bench.run_case(SRC, case, 0)["result"] == committed[case.name, case.family, case.n]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _analyze_or_parse(case, graphs):
    from pgl import cli

    (G,) = graphs
    if case.name == "analyze":
        return _digest(cli._analyze_line(G))
    return _digest(pgl.parse_graph(pgl.emit_graph(G, case.name[len("parse-"):])))


def _definition(case, graphs):
    from pgl.oracles import is_perfect_by_definition

    verdicts = [is_perfect_by_definition(H) for H in graphs]
    return _digest(verdicts) if case.graphs > 1 else verdicts[0]


def _parameters_or_analyze(case, graphs):
    if case.name == "analyze":
        return _analyze_or_parse(case, graphs)
    params = [pgl.graph_parameters(H) for H in graphs]
    return _digest(params if case.graphs > 1 else params[0])


def _walk(case, graphs):
    if case.name == "analyze":
        return _analyze_or_parse(case, graphs)
    (G,) = graphs
    if case.name == "is_perfect":
        return pgl.is_perfect(G)
    witness = pgl.imperfection_witness(G)
    return None if witness is None else list(witness)


def _walk_step(case, graphs):
    from pgl.oracles import oracle_parameters

    if case.name == "is_perfect_by_definition":
        return _definition(case, graphs)
    if case.name == "oracle_parameters":
        params = map(oracle_parameters, graphs)
        return _digest([(p.alpha, p.omega, p.chi, p.max_clique_witness, p.max_stable_witness) for p in params])
    return _walk(case, graphs)


def _oracle_tables(case, graphs):
    if case.name != "find_odd_hole_or_antihole":
        return _walk_step(case, graphs)
    found = [pgl.find_odd_hole_or_antihole(H) for H in graphs]
    if case.graphs > 1:
        return _digest(found)
    return None if found[0] is None else _digest(found[0])


def _graph_values(case, graphs):
    if case.name == "enumerate_graphs":
        return _digest(list(pgl.enumerate_graphs(case.n, "random", count=3600)))
    seps = [pgl.build_separated_graph(H) for H in graphs]
    return _digest(seps if case.graphs > 1 else seps[0])


def _certify_io(case, graphs):
    from pgl import cli

    (G,) = graphs
    if case.name.startswith("parse-"):
        return _analyze_or_parse(case, graphs)
    cert = pgl.wpgt_certificate(G)
    if case.name == "verify_certificate":
        return pgl.verify_certificate(G, cert)
    if case.name == "wpgt_certificate":
        return _digest(cert)
    if case.name == "certificate-json":
        return _digest(cli._certificate_json(cert))
    return _digest(pgl.cover_to_coloring(pgl.complement(G), cert.clique_cover))


def _cli_dispatch(case, graphs):
    """The exit status and stdout of each command of a run_command case.

    certify writes its certificate to a file, and verify accepts it: the
    certified families are perfect.
    """
    from pgl import cli

    (G,) = graphs
    if case.call == bench._RUN_ANALYZE:
        return _digest([(0, cli._analyze_line(G))])
    return _digest([(0, ""), (0, "certificate ok\n")])


# Each committed parent-vs-change file, the case names it holds, its row
# count per tree, and what a row of a case with graphs must read (each
# sweep case reads every labelled graph on n vertices and no counterexample).
COMMITTED = {
    "BENCH_analyze.json": ({"analyze", "parse-graph6", "parse-dimacs", "parse-edgelist"}, 22, _analyze_or_parse),
    "BENCH_pipeline.json": ({"wpgt_certificate"}, 5, lambda case, graphs: _digest(pgl.wpgt_certificate(*graphs))),
    "BENCH_definition.json": ({"is_perfect_by_definition", "sweep-wpgt"}, 8, _definition),
    # Its oracle_parameters digests cover a chi witness the oracle no longer
    # gives, so only its sweep row is reproduced.
    "BENCH_oracle_indicators.json": ({"oracle_parameters", "sweep-oracle-agreement"}, 10, None),
    "BENCH_expansion_host.json": ({"sweep-expansion"}, 2, None),
    # The emission rows (n >= 200) are not reproduced here; the two trees
    # must agree on their digests.
    "BENCH_one_check.json": (
        {"sweep-separation", "sweep-expansion", "sweep-iso", "sweep-wpgt", "emit-graph6"}, 7, None
    ),
    # The find_isomorphism and clique_number rows (n >= 40) are not
    # reproduced here; the two trees must agree on their results.
    "BENCH_color_classes.json": (
        {"graph_parameters", "find_isomorphism", "clique_number", "analyze"}, 24, _parameters_or_analyze
    ),
    "BENCH_walk.json": ({"is_perfect", "imperfection_witness", "analyze"}, 54, _walk),
    "BENCH_graph6.json": ({"parse-graph6"}, 4, _analyze_or_parse),
    "BENCH_certify_io.json": (
        {"certificate-json", "cover_to_coloring", "parse-dimacs", "parse-edgelist", "verify_certificate",
         "wpgt_certificate"},
        24,
        _certify_io,
    ),
    "BENCH_walk_step.json": (
        {"is_perfect", "imperfection_witness", "analyze", "sweep-replication", "oracle_parameters",
         "is_perfect_by_definition"},
        84,
        _walk_step,
    ),
    "BENCH_cli_dispatch.json": ({"run_command"}, 5, _cli_dispatch),
    "BENCH_size_table.json": ({"is_perfect", "imperfection_witness", "analyze", "sweep-replication"}, 56, _walk),
    "BENCH_small_steps.json": (
        {"is_perfect", "imperfection_witness", "analyze", "sweep-berge", "sweep-iso", "sweep-replication",
         "run_command"},
        64,
        lambda case, graphs: (_cli_dispatch if case.name == "run_command" else _walk)(case, graphs),
    ),
    "BENCH_oracle_tables.json": (
        {"oracle_parameters", "find_odd_hole_or_antihole", "is_perfect_by_definition", "sweep-wpgt", "sweep-berge",
         "sweep-oracle-agreement", "sweep-separation"},
        40,
        _oracle_tables,
    ),
    "BENCH_graph_values.json": (
        {"enumerate_graphs", "build_separated_graph", "sweep-separation", "sweep-iso"}, 9, _graph_values
    ),
}


@pytest.mark.parametrize("name", COMMITTED)
def test_the_committed_results_agree_and_are_reproduced(name):
    names, count, reproduce = COMMITTED[name]
    with open(os.path.join(ROOT, name)) as fh:
        trees = json.load(fh)
    assert list(trees) == ["parent", "change"]
    parent, change = (trees[tree]["cases"] for tree in trees)
    assert [_case_key(row) for row in parent] == [_case_key(row) for row in change]
    assert [row["result"] for row in parent] == [row["result"] for row in change]
    registry = {(c.name, c.family, c.n): c for c in bench.CASES}
    assert {row["case"] for row in change} == names
    assert len(change) == count
    # A case of these names that the registry gained after this record
    # was written is held by a later record.
    recorded = {_case_key(row) for row in change}
    later = set().union(*(keys for other, keys in _layer_records().items() if other != name))
    assert sorted(key for key in registry if key[0] in names and key not in recorded | later) == []
    for row in change:
        case = registry[_case_key(row)]
        if case.name.startswith("sweep-"):
            assert row["result"] == [2 ** math.comb(case.n, 2), 0], row
        elif reproduce is not None and case.n <= 20:
            graphs = [pgl.make_graph(range(case.n), edges) for edges in bench.edge_lists(case)]
            assert row["result"] == reproduce(case, graphs), row


def test_a_raising_case_is_recorded_and_the_run_goes_on(tmp_path, monkeypatch):
    cases = [c for c in bench.CASES if c.name == "clique_number"]
    monkeypatch.setattr(bench, "CASES", [cases[0], bench.Case("boom", "lambda: 1 // 0", None, 3, None), cases[1]])
    out = tmp_path / "layers.json"
    assert bench.main(["--src", f"here={SRC}", "--min-seconds", "0", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["here"]["cases"]
    assert [(row["case"], row["n"]) for row in rows] == [("clique_number", 40), ("boom", 3), ("clique_number", 44)]
    assert all(set(row) == ROW_FIELDS for row in rows)
    assert rows[1]["result"] == "error: ZeroDivisionError: integer division or modulo by zero"
    assert rows[1]["median_ms"] is rows[1]["child_ms"] is rows[1]["repeats"] is rows[1]["peak_rss_kib"] is None
    assert [row["repeats"] for row in rows[::2]] == [bench.CHILDREN, bench.CHILDREN]
