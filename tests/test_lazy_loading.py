"""The package and the CLI load only the pgl modules a caller uses."""

import importlib
import json

import pytest

import pgl
from pgl import cli, sweeps
from pgl.cli import run_command

from conftest import run_fresh

# The names `import pgl` exposes, by defining module.
EXPORTS = {
    "core": "Cover Graph Vertex VertexSet complement induced_subgraph is_induced_subgraph make_graph"
    " union_over vertex_set",
    "constructions": "ExpansionWitness ReplicationWitness Separation build_separated_graph expand mk_disj"
    " replicate verify_expansion verify_replication",
    "errors": "DanglingEdgeError EmptyGraphError GraphError InvalidColoringError NotAStableCoverError"
    " NotSubsetError ParseError PartialMapError SelfLoopError TooLargeError VertexNotFoundError"
    " ZeroMultiplicityError",
    "formats": "GraphDocument emit_graph parse_graph relabel_graph",
    "invariants": "Coloring GraphParameters check_cover chromatic_number clique_number coloring_to_cover"
    " colors_used cover_to_coloring graph_parameters imperfection_witness is_clique is_nice is_perfect"
    " is_stable is_valid_coloring max_clique_witness max_stable_sets max_stable_witness stable_number",
    "iso": "IsoWitness compose_witnesses find_isomorphism verify_iso_witness verify_morph",
    "oracles": "enumerate_graphs find_odd_hole_or_antihole is_berge oracle_parameters",
    "pipeline": "PerfectnessFailure WpgtCertificate clique_cover_alpha intersecting_clique recheck_failure"
    " verify_certificate wpgt_certificate",
    "sweeps": "Counterexample SweepReport sweep",
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names.split())])

BASE = ["pgl", "pgl.cli", "pgl.core", "pgl.errors", "pgl.formats", "pgl.invariants"]
CERTIFY = sorted(BASE + ["pgl.pipeline"])
CONSTRUCT = sorted(BASE + ["pgl.constructions"])
EVERYTHING = sorted(BASE + [f"pgl.{m}" for m in ("constructions", "iso", "oracles", "pipeline", "sweeps")])

COMMANDS = [
    (["analyze"], BASE),
    (["convert", "--to", "dimacs"], BASE),
    (["certify"], CERTIFY),
    (["verify", "--cert", "{cert}"], CERTIFY),
    (["replicate", "--vertex", "1"], CONSTRUCT),
    (["expand", "--mult", "1:2,2:1,3:1"], CONSTRUCT),
    (["separate"], CONSTRUCT),
    (["iso", "--other", "{graph}"], sorted(BASE + ["pgl.iso"])),
    (["sweep", "--prop", "wpgt,berge", "--n", "3"], EVERYTHING),
]


def _loaded_after(source: str) -> list[str]:
    out = run_fresh(
        "import contextlib, io, json, sys\n"
        f"{source}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'pgl' or m.startswith('pgl.'))))\n"
    )
    return json.loads(out)


@pytest.mark.parametrize(
    "argv, loads_json", [(["analyze"], False), (["certify"], False), (["verify"], True)], ids=["analyze", "certify", "verify"]
)
def test_json_is_imported_only_by_the_commands_that_read_or_write_it(tmp_path, argv, loads_json):
    graph = tmp_path / "path.el"
    graph.write_text("1 2\n2 3\n")
    cert = tmp_path / "path.json"
    assert run_command(["certify", "--in", str(graph), "--out", str(cert)]) == 0
    argv = argv + ["--in", str(graph)] + (["--cert", str(cert)] if argv == ["verify"] else [])
    # sys.modules is read before anything else imports json.
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from pgl.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = run_command({argv!r})\n"
        "print(code, 'json' in sys.modules)\n"
    )
    assert out == f"0 {loads_json}\n"


def test_a_bare_import_loads_only_the_package():
    assert _loaded_after("import pgl") == ["pgl"]


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    graph = tmp_path / "path.el"
    graph.write_text("1 2\n2 3\n")
    cert = tmp_path / "path.json"
    assert run_command(["certify", "--in", str(graph), "--out", str(cert)]) == 0
    argv = [arg.format(graph=graph, cert=cert) for arg in argv]
    if argv[0] != "sweep":
        argv += ["--in", str(graph)]
    loaded = _loaded_after(
        "from pgl.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = run_command({argv!r})\n"
        "assert code == 0, code\n"
    )
    assert loaded == expected


def test_the_package_exposes_every_name_it_always_did():
    assert len(PUBLIC) == 82
    out = run_fresh("import json, pgl\nprint(json.dumps(sorted(n for n in dir(pgl) if not n.startswith('_'))))")
    assert json.loads(out) == PUBLIC
    assert sorted(pgl.__all__) == PUBLIC
    assert pgl.__version__ == "0.1.0"


def test_each_name_is_the_object_its_module_defines():
    for module, names in EXPORTS.items():
        owner = getattr(pgl, module)
        assert owner is importlib.import_module(f"pgl.{module}")
        for name in names.split():
            assert getattr(pgl, name) is getattr(owner, name), name
    star: dict = {}
    exec("from pgl import *", star)
    assert {name: star[name] for name in PUBLIC} == {name: getattr(pgl, name) for name in PUBLIC}
    assert set(PUBLIC) <= set(dir(pgl))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'pgl' has no attribute 'no_such_name'"):
        pgl.no_such_name
    with pytest.raises(ImportError):
        exec("from pgl import no_such_name", {})


def test_the_cli_lists_the_sweep_properties_without_importing_them():
    assert cli._PROPERTY_NAMES == tuple(sorted(sweeps.PROPERTIES))


HELP = """\
usage: pgl [-h]
           {analyze,certify,verify,replicate,expand,separate,iso,sweep,convert}
           ...

exact perfect-graph toolkit: parameters, constructions, certificates, sweeps

positional arguments:
  {analyze,certify,verify,replicate,expand,separate,iso,sweep,convert}
    analyze             report alpha, omega, chi, nice, perfect
    certify             produce a clique-cover / complement-coloring
                        certificate
    verify              re-check a certificate from scratch
    replicate           clone a vertex together with its neighborhood
    expand              expand vertices into cliques per 'v:k,...'
    separate            emit the separated-graph construction as JSON
    iso                 search for an isomorphism witness onto another graph
    sweep               run property sweeps over small-graph streams
    convert             re-serialize a graph in another format

options:
  -h, --help            show this help message and exit
"""

SWEEP_HELP = """\
usage: pgl sweep [-h] --prop PROP --n N [--mode {exhaustive,random}]
                 [--seed SEED] [--count COUNT] [--jobs JOBS] [--out OUT]
                 [--json JSON]

options:
  -h, --help            show this help message and exit
  --prop PROP           property name(s), comma separated; known:
                        berge,duality,expansion,iso,oracle-
                        agreement,pipeline,replication,separation,wpgt
  --n N                 number of vertices
  --mode {exhaustive,random}
  --seed SEED
  --count COUNT         graphs to draw in random mode
  --jobs JOBS           worker processes (at most the CPU count)
  --out OUT             output file (default stdout)
  --json JSON           also write a structured JSON report
"""


@pytest.mark.parametrize("argv, text", [(["--help"], HELP), (["sweep", "--help"], SWEEP_HELP)])
def test_help_text_is_unchanged(monkeypatch, capsys, argv, text):
    # argparse wraps help at the COLUMNS width, less two.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(argv) == 0
    assert capsys.readouterr() == (text, "")
