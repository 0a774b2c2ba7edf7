"""The layer-benchmark harness in tools/: its registry, rows and results."""

from __future__ import annotations

import builtins
import hashlib
import importlib.util
import json
import os
import types
from functools import partial

import pgl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pgl.__file__)))
ROW_FIELDS = {"case", "family", "n", "graphs", "result", "median_ms", "repeats", "peak_rss_kib"}

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


def test_every_committed_row_names_a_registry_case():
    registry = {(case.name, case.family, case.n) for case in bench.CASES}
    for name in (
        "BENCH_perfection.json",
        "BENCH_oracles.json",
        "BENCH_sweep_layers.json",
        "BENCH_sweep_checks.json",
        "BENCH_verify.json",
        "BENCH_analyze.json",
    ):
        rows = _committed_rows(name)
        assert rows
        assert [_case_key(row) for row in rows if _case_key(row) not in registry] == []


def test_a_run_writes_the_documented_rows_and_the_in_process_results(tmp_path):
    out = tmp_path / "layers.json"
    argv = ["--src", f"here={SRC}", "--min-seconds", "0", "--out", str(out)]
    assert bench.main(argv + ["--case", "clique_number", "--case", "emit-graph6"]) == 0
    rows = json.loads(out.read_text())["here"]["cases"]
    assert [(row["case"], row["n"]) for row in rows] == [
        ("clique_number", 40), ("clique_number", 44), ("clique_number", 48),
        ("emit-graph6", 200), ("emit-graph6", 400),
    ]
    assert all(set(row) == ROW_FIELDS and row["repeats"] == 1 and row["graphs"] == 1 for row in rows)
    for row, case in zip(rows[:3], [c for c in bench.CASES if c.name == "clique_number"]):
        (edges,) = bench.edge_lists(case)
        assert row["result"] == pgl.clique_number(pgl.make_graph(range(case.n), edges))
    assert all(len(row["result"]) == 16 for row in rows[3:])


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


def test_the_committed_analyze_and_parse_results_agree_and_are_reproduced():
    from pgl import cli

    with open(os.path.join(ROOT, "BENCH_analyze.json")) as fh:
        trees = json.load(fh)
    assert list(trees) == ["parent", "change"]
    parent, change = (trees[name]["cases"] for name in trees)
    assert [_case_key(row) for row in parent] == [_case_key(row) for row in change]
    assert [row["result"] for row in parent] == [row["result"] for row in change]
    registry = {(c.name, c.family, c.n): c for c in bench.CASES}
    names = {row["case"] for row in change}
    assert names == {"analyze", "parse-graph6", "parse-dimacs", "parse-edgelist"}
    assert len(change) == len([c for c in bench.CASES if c.name in names]) == 22
    for row in change:
        case = registry[_case_key(row)]
        if case.n > 20:
            continue
        (edges,) = bench.edge_lists(case)
        G = pgl.make_graph(range(case.n), edges)
        if case.name == "analyze":
            assert row["result"] == _digest(cli._analyze_line(G)), row
        else:
            assert row["result"] == _digest(pgl.parse_graph(pgl.emit_graph(G, case.name[len("parse-"):]))), row


def test_the_analyze_case_builds_the_same_line_on_a_tree_without_the_helper():
    from pgl import cli

    older = types.SimpleNamespace(_bool_word=cli._bool_word)
    namespace = {
        "__builtins__": {**vars(builtins), "__import__": lambda *args, **kwargs: older},
        "pgl": pgl,
        "partial": partial,
    }
    for case in [c for c in bench.CASES if c.name == "analyze" and c.n <= 15]:
        (edges,) = bench.edge_lists(case)
        G = namespace["G"] = pgl.make_graph(range(case.n), edges)
        assert eval(bench._ANALYZE, namespace)() == cli._analyze_line(G)
