"""Exact finite-simple-graph toolkit.

Canonical immutable graphs, exact parameters (alpha, omega, chi) with
witnesses, replication / expansion / separation constructions, a
certifying clique-cover pipeline for perfect graphs, independent
brute-force oracles, and exhaustive small-graph theorem sweeps.

Importing the package loads none of its modules.  Each exported name is
looked up in its module on access (PEP 562), so ``pgl.is_perfect``
is always ``pgl.invariants.is_perfect`` and a program pays only for the
modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "core": (
        "Cover",
        "Graph",
        "Vertex",
        "VertexSet",
        "complement",
        "induced_subgraph",
        "is_induced_subgraph",
        "make_graph",
        "union_over",
        "vertex_set",
    ),
    "constructions": (
        "ExpansionWitness",
        "ReplicationWitness",
        "Separation",
        "build_separated_graph",
        "expand",
        "mk_disj",
        "replicate",
        "verify_expansion",
        "verify_replication",
    ),
    "errors": (
        "DanglingEdgeError",
        "EmptyGraphError",
        "GraphError",
        "InvalidColoringError",
        "NotAStableCoverError",
        "NotSubsetError",
        "ParseError",
        "PartialMapError",
        "SelfLoopError",
        "TooLargeError",
        "VertexNotFoundError",
        "ZeroMultiplicityError",
    ),
    "formats": ("GraphDocument", "emit_graph", "parse_graph", "relabel_graph"),
    "invariants": (
        "Coloring",
        "GraphParameters",
        "check_cover",
        "chromatic_number",
        "clique_number",
        "coloring_to_cover",
        "colors_used",
        "cover_to_coloring",
        "graph_parameters",
        "imperfection_witness",
        "is_clique",
        "is_nice",
        "is_perfect",
        "is_stable",
        "is_valid_coloring",
        "max_clique_witness",
        "max_stable_sets",
        "max_stable_witness",
        "stable_number",
    ),
    "iso": ("IsoWitness", "compose_witnesses", "find_isomorphism", "verify_iso_witness", "verify_morph"),
    "oracles": ("enumerate_graphs", "find_odd_hole_or_antihole", "is_berge", "oracle_parameters"),
    "pipeline": (
        "PerfectnessFailure",
        "WpgtCertificate",
        "clique_cover_alpha",
        "intersecting_clique",
        "recheck_failure",
        "verify_certificate",
        "wpgt_certificate",
    ),
    "sweeps": ("Counterexample", "SweepReport", "sweep"),
}

# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_EXPORTS, *_EXPORTS])


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
