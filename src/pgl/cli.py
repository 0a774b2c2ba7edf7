"""Command-line surface.

Subcommands: analyze, certify, verify, replicate, expand, separate,
iso, sweep, convert.  Graphs are read from --in (or stdin) in graph6,
DIMACS, or edge-list format; exit status 0 means success or the checked
property holds, 1 means the property fails or the pipeline produced
negative evidence, 2 means a usage or parse error, an input past a
size cap, or one too deep for a recursive search.  Output is
deterministic: identical inputs and flags give byte-identical output.

run_command may be called any number of times in one process.  The
argument parser is built on the first call and reused after it; argparse
makes a fresh namespace and help formatter on every parse, so reuse
changes no output.  Importing this module builds nothing, and `sweep
--jobs N` loads the process pool only when it actually splits the
stream across workers.

Each command loads only the pgl modules it runs, so a fresh process
starts faster.  Importing this module loads core, errors, formats and
invariants, which are all that analyze and convert need.  The other
handlers import their engine when they run:

    certify, verify             + pipeline
    replicate, expand, separate + constructions
    iso                         + iso
    sweep                       + constructions, iso, oracles, pipeline, sweeps

analyze computes each exponential quantity once.  The perfection walk
runs first; on a perfect graph its subset tables give alpha and omega,
and chi = omega by perfection.  Only an imperfect graph runs the clique
searches and the coloring search of graph_parameters.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import TYPE_CHECKING, Sequence

from .core import Graph
from .errors import GraphError, ParseError
from .formats import (
    EMIT_FORMATS,
    GraphDocument,
    PARSE_FORMATS,
    canonical_format,
    emit_graph,
    infer_format,
    parse_graph,
)
from .invariants import _lovasz_walk, graph_parameters

# analyze no longer calls is_perfect, but perfbench's tracer rebinds
# pgl.cli.is_perfect, so the name stays bound here.
from .invariants import is_perfect  # noqa: F401

if TYPE_CHECKING:
    from .pipeline import PerfectnessFailure, WpgtCertificate

# sorted(sweeps.PROPERTIES), kept here so that building the parser for
# the sweep help text does not import the sweep engine.
_PROPERTY_NAMES = (
    "berge",
    "duality",
    "expansion",
    "iso",
    "oracle-agreement",
    "pipeline",
    "replication",
    "separation",
    "wpgt",
)


def _read_text(path: str | None) -> tuple[str, str | None]:
    if path is None or path == "-":
        return sys.stdin.read(), None
    with open(path, "r", encoding="ascii") as handle:
        return handle.read(), path


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)


def _load_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    text, name = _read_text(getattr(args, "infile", None))
    fmt = canonical_format(getattr(args, "format", None) or infer_format(name, text))
    return parse_graph(GraphDocument(fmt, text)), fmt


def _bool_word(flag: bool) -> str:
    return "true" if flag else "false"


def _certificate_json(cert: WpgtCertificate) -> str:
    doc = {
        "alpha": cert.alpha,
        "stable_set": list(cert.stable_set),
        "clique_cover": [list(part) for part in cert.clique_cover],
        "complement_coloring": {
            str(v): cert.complement_coloring[v] for v in sorted(cert.complement_coloring)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


# A coloring key is a vertex id written the way certify writes it.
_VERTEX_KEY = re.compile(r"0|[1-9][0-9]*")


def _json_int(value: object, what: str) -> int:
    """value itself when it is a JSON integer; bools, floats and strings are refused."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _json_vertex(value: object, what: str) -> int:
    """value itself when it is a non-negative JSON integer."""
    if _json_int(value, what) < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _vertex_key(key: str) -> int:
    if not _VERTEX_KEY.fullmatch(key):
        raise ValueError(f"complement_coloring key must be a decimal vertex id, got {key!r}")
    return int(key)


def _certificate_from_json(text: str) -> WpgtCertificate:
    from .pipeline import WpgtCertificate

    try:
        doc = json.loads(text)
        alpha = _json_int(doc["alpha"], "alpha")
        stable = doc["stable_set"]
        if not isinstance(stable, list) or any(type(v) is not int or v < 0 for v in stable):
            raise TypeError("stable_set must be a list of non-negative integer vertex ids")
        cover = doc["clique_cover"]
        if not isinstance(cover, list) or not all(isinstance(part, list) for part in cover):
            raise TypeError("clique_cover must be a list of vertex lists")
        coloring = doc["complement_coloring"]
        if not isinstance(coloring, dict):
            raise TypeError("complement_coloring must be an object")
        return WpgtCertificate(
            alpha,
            tuple(stable),
            tuple(tuple(_json_vertex(v, "a cover vertex") for v in part) for part in cover),
            {_vertex_key(v): _json_int(c, "a color") for v, c in coloring.items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from None


def _failure_lines(failure: PerfectnessFailure) -> str:
    return (
        f"perfectness failure: kind={failure.kind}"
        f" subgraph={list(failure.subgraph)}"
        f" found={failure.found} required={failure.required}\n"
    )


def _graph_json(G: Graph) -> dict:
    return {"nodes": list(G.nodes), "edges": [list(e) for e in G.edges]}


def _analyze_line(G: Graph) -> str:
    """The line analyze writes for G.

    The perfection walk runs first, so that a graph past its cap fails
    before any search.  On a perfect graph the walk's tables give alpha
    and omega, and chi = omega by perfection; only an imperfect graph
    runs the clique searches and the coloring search of graph_parameters.
    """
    witness, alpha, omega = _lovasz_walk(G, early=True)
    if witness is None:
        chi = omega
    else:
        p = graph_parameters(G)
        alpha, omega, chi = p.alpha, p.omega, p.chi
    return (
        f"alpha={alpha} omega={omega} chi={chi}"
        f" nice={_bool_word(chi == omega)} perfect={_bool_word(witness is None)}\n"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    G, _ = _load_graph(args)
    _write_text(args.out, _analyze_line(G))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .pipeline import PerfectnessFailure, wpgt_certificate

    G, _ = _load_graph(args)
    result = wpgt_certificate(G)
    if isinstance(result, PerfectnessFailure):
        sys.stdout.write(_failure_lines(result))
        return 1
    _write_text(args.out, _certificate_json(result))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .pipeline import verify_certificate

    G, _ = _load_graph(args)
    text, _ = _read_text(args.cert)
    cert = _certificate_from_json(text)
    if verify_certificate(G, cert):
        sys.stdout.write("certificate ok\n")
        return 0
    sys.stdout.write("certificate invalid\n")
    return 1


def _payload_line(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


def _emit_result(args: argparse.Namespace, in_fmt: str, H: Graph) -> None:
    fmt = getattr(args, "to", None) or in_fmt
    _write_text(args.out, _payload_line(emit_graph(H, fmt).payload))


def _cmd_replicate(args: argparse.Namespace) -> int:
    from .constructions import replicate

    G, fmt = _load_graph(args)
    H, witness = replicate(G, args.vertex)
    sys.stderr.write(f"replicated {witness.base} -> {witness.clone}\n")
    _emit_result(args, fmt, H)
    return 0


def _parse_multiplicities(text: str) -> dict[int, int]:
    mult: dict[int, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vertex, value = (int(part) for part in chunk.split(":"))
        except ValueError:
            raise ParseError(f"bad multiplicity entry {chunk!r}; use 'v:k,...'") from None
        if vertex in mult:
            raise ParseError(f"multiplicity given twice for vertex {vertex}")
        mult[vertex] = value
    return mult


def _cmd_expand(args: argparse.Namespace) -> int:
    from .constructions import expand

    G, fmt = _load_graph(args)
    H, _ = expand(G, _parse_multiplicities(args.mult))
    _emit_result(args, fmt, H)
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    from .constructions import build_separated_graph

    G, _ = _load_graph(args)
    sep = build_separated_graph(G)
    doc = {
        "base": _graph_json(sep.base),
        "separated": _graph_json(sep.separated),
        "back": {str(x): origin for x, origin in sorted(sep.back.items())},
        "stable_sets": [list(part) for part in sep.stable_sets],
        "disjoint_parts": [list(part) for part in sep.disjoint_parts],
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    from .iso import find_isomorphism

    G, _ = _load_graph(args)
    text, name = _read_text(args.other)
    fmt = args.other_format or infer_format(name, text)
    H = parse_graph(GraphDocument(canonical_format(fmt), text))
    witness = find_isomorphism(G, H)
    if witness is None:
        sys.stdout.write("not isomorphic\n")
        return 1
    doc = {
        "forward": {str(v): w for v, w in sorted(witness.forward.items())},
        "backward": {str(v): w for v, w in sorted(witness.backward.items())},
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import sweep

    names = tuple(p.strip() for p in args.prop.split(",") if p.strip())
    report = sweep(
        names, args.n, args.mode, seed=args.seed, count=args.count, jobs=args.jobs
    )
    lines = [f"{report.graphs_checked} graphs, {len(report.counterexamples)} counterexamples"]
    for cex in report.counterexamples:
        g6 = emit_graph(cex.graph, "graph6").payload
        lines.append(
            f"counterexample index={cex.index} property={cex.prop} graph6={g6} evidence={cex.evidence}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.json:
        doc = {
            "properties": list(report.properties),
            "n": report.n,
            "mode": report.mode,
            "graphs_checked": report.graphs_checked,
            "counterexamples": [
                {
                    "index": cex.index,
                    "graph6": emit_graph(cex.graph, "graph6").payload,
                    "property": cex.prop,
                    "evidence": cex.evidence,
                }
                for cex in report.counterexamples
            ],
        }
        _write_text(args.json, json.dumps(doc, indent=2) + "\n")
    return 0 if report.ok else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    G, _ = _load_graph(args)
    _write_text(args.out, _payload_line(emit_graph(G, args.to).payload))
    return 0


def _add_io_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument(
        "--format",
        choices=sorted(PARSE_FORMATS),
        default=None,
        help="input format (default: inferred from the file name or payload)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The pgl argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="pgl",
        description="exact perfect-graph toolkit: parameters, constructions, certificates, sweeps",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("analyze", help="report alpha, omega, chi, nice, perfect")
    _add_io_arguments(sub)
    sub.set_defaults(handler=_cmd_analyze)

    sub = commands.add_parser("certify", help="produce a clique-cover / complement-coloring certificate")
    _add_io_arguments(sub)
    sub.set_defaults(handler=_cmd_certify)

    sub = commands.add_parser("verify", help="re-check a certificate from scratch")
    _add_io_arguments(sub)
    sub.add_argument("--cert", required=True, help="certificate file produced by certify")
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser("replicate", help="clone a vertex together with its neighborhood")
    _add_io_arguments(sub)
    sub.add_argument("--vertex", type=int, required=True)
    sub.add_argument("--to", choices=sorted(EMIT_FORMATS), default=None, help="output format")
    sub.set_defaults(handler=_cmd_replicate)

    sub = commands.add_parser("expand", help="expand vertices into cliques per 'v:k,...'")
    _add_io_arguments(sub)
    sub.add_argument("--mult", required=True, help="multiplicities, e.g. '1:2,2:3'")
    sub.add_argument("--to", choices=sorted(EMIT_FORMATS), default=None, help="output format")
    sub.set_defaults(handler=_cmd_expand)

    sub = commands.add_parser("separate", help="emit the separated-graph construction as JSON")
    _add_io_arguments(sub)
    sub.set_defaults(handler=_cmd_separate)

    sub = commands.add_parser("iso", help="search for an isomorphism witness onto another graph")
    _add_io_arguments(sub)
    sub.add_argument("--other", required=True, help="file holding the second graph")
    sub.add_argument(
        "--other-format", choices=sorted(PARSE_FORMATS), default=None, help="format of --other"
    )
    sub.set_defaults(handler=_cmd_iso)

    sub = commands.add_parser("sweep", help="run property sweeps over small-graph streams")
    sub.add_argument("--prop", required=True, help=f"property name(s), comma separated; known: {','.join(_PROPERTY_NAMES)}")
    sub.add_argument("--n", type=int, required=True, help="number of vertices")
    sub.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--count", type=int, default=1000, help="graphs to draw in random mode")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes (at most the CPU count)")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--json", default=None, help="also write a structured JSON report")
    sub.set_defaults(handler=_cmd_sweep)

    sub = commands.add_parser("convert", help="re-serialize a graph in another format")
    _add_io_arguments(sub)
    sub.add_argument("--to", choices=sorted(EMIT_FORMATS), required=True)
    sub.set_defaults(handler=_cmd_convert)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Dispatch argv and return the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (GraphError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2
    except RecursionError:
        # The searches recurse once per vertex of a path or clique, so a
        # deep enough input outgrows the interpreter's stack.
        sys.stderr.write("error: input too deep for the recursive search (Python recursion limit)\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
