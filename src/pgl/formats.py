"""Graph documents: graph6, DIMACS edge format, and plain edge lists.

Emission is canonical and byte-stable.  graph6 indexes vertices
0..n-1 and DIMACS / headed edge lists index 1..n, so emitting a graph
whose node set is not contiguous relabels it order-preservingly and
reports the mapping on the document; parsing any emitted payload then
reproduces the (possibly relabeled) graph exactly.  DOT output is
available for figures but is emit-only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, _pair_rows, make_graph, vertex_set
from .errors import ParseError

GRAPH6 = "graph6"
DIMACS = "dimacs"
EDGELIST = "edgelist"
DOT = "dot"

PARSE_FORMATS = (GRAPH6, DIMACS, EDGELIST)
EMIT_FORMATS = (GRAPH6, DIMACS, EDGELIST, DOT)

_ALIASES = {
    "graph6": GRAPH6,
    "g6": GRAPH6,
    "dimacs": DIMACS,
    "dimacs-col": DIMACS,
    "col": DIMACS,
    "edgelist": EDGELIST,
    "edge-list": EDGELIST,
    "el": EDGELIST,
    "dot": DOT,
}

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_HEADER = ">>graph6<<"
# Each graph6 body character, as the six bits it carries.
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}


@dataclass(frozen=True)
class GraphDocument:
    """A serialized graph: format name, payload text, and the relabeling
    (old id -> emitted id) when emission had to rename vertices."""

    format: str
    payload: str
    relabeling: dict[int, int] | None = None


def canonical_format(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown format {name!r}; known: {sorted(set(_ALIASES.values()))}")
    return _ALIASES[key]


def parse_graph(doc: GraphDocument) -> Graph:
    """Parse a document into a canonical graph."""
    fmt = canonical_format(doc.format)
    if fmt == GRAPH6:
        return _graph6_decode(doc.payload)
    if fmt == DIMACS:
        return _dimacs_decode(doc.payload)
    if fmt == EDGELIST:
        return _edgelist_decode(doc.payload)
    raise ParseError(f"format {fmt} is emit-only")


def emit_graph(G: Graph, fmt: str) -> GraphDocument:
    """Serialize a graph; see module docstring for relabeling rules."""
    fmt = canonical_format(fmt)
    if fmt == GRAPH6:
        payload, relabel = _graph6_encode(G)
    elif fmt == DIMACS:
        payload, relabel = _dimacs_encode(G)
    elif fmt == EDGELIST:
        payload, relabel = _edgelist_encode(G)
    else:
        payload, relabel = _dot_encode(G), None
    return GraphDocument(fmt, payload, relabel)


def relabel_graph(G: Graph, mapping: dict[int, int]) -> Graph:
    """Apply an emission relabeling to compare against a parsed document."""
    return make_graph(
        (mapping[v] for v in G.nodes),
        ((mapping[u], mapping[v]) for u, v in G.edges),
    )


# ---------------------------------------------------------------------------
# graph6


def _graph6_encode(G: Graph) -> tuple[str, dict[int, int] | None]:
    n = G.n
    if n > _G6_MAX_LONG:
        raise ValueError(f"graph6 encoder supports at most {_G6_MAX_LONG} vertices")
    relabel = None
    if G.nodes != tuple(range(n)):
        relabel = {v: i for i, v in enumerate(G.nodes)}
    if n <= _G6_MAX_SHORT:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    # Column j, the neighbours i < j of vertex j, is the low j bits of row
    # j; reversed, its binary digits spell them i = 0 first.  Zeros pad
    # the last character.
    rows = G.bit_adjacency
    nbits = n * (n - 1) // 2
    spelled = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)) + "0" * (-nbits % 6)
    return head + "".join(chr(63 + int(spelled[k : k + 6], 2)) for k in range(0, nbits, 6)), relabel


def _graph6_decode(payload: str) -> Graph:
    """Rows straight from the body.

    The pairs run (0, 1), (0, 2), (1, 2), (0, 3), ..., so column j, the
    neighbours i < j of vertex j, is the next j bits after those of
    columns 1 .. j-1.
    """
    s = payload.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 payload")
    if min(s) < "?" or max(s) > "~":
        for col, ch in enumerate(s, 1):
            if not 63 <= ord(ch) <= 126:
                raise ParseError(f"invalid graph6 character {ch!r}", column=col)
    pos = 0
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ParseError("unsupported or truncated graph6 size header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    nbits = n * (n - 1) // 2
    body = s[pos:]
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"graph6 body for {n} vertices needs {need} characters, got {len(body)}",
            column=pos + 1,
        )
    # Each character spells its six bits, first bit first.
    spelled = body.translate(_G6_BITS)
    if "1" in spelled[nbits:]:
        raise ParseError("graph6 padding bits must be zero", column=len(s))
    if n > _G6_EDGE_LOOP_MAX_N:
        return Graph(tuple(range(n)), _g6_rows_by_transpose(spelled, n))
    # Reversed, the bits read as one int with the first pair bit lowest;
    # each column is peeled off it, and each edge sets its upper bit too.
    bits = int(spelled[::-1] or "0", 2)
    rows = [0] * n
    for j in range(1, n):
        column = bits & ((1 << j) - 1)
        bits >>= j
        rows[j] = column
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph(tuple(range(n)), tuple(rows))


# Up to this many vertices, peeling each column off one int and setting
# the upper bit of each edge one at a time beats transposing the columns:
# on G(n, 1/2) the two cost the same at 20-24 vertices, and at 48 the
# loop takes 2.5 times as long.  Past it, the shift that peels a column
# copies the rest of the body, and each edge costs a Python step.
_G6_EDGE_LOOP_MAX_N = 24


def _g6_rows_by_transpose(spelled: str, n: int) -> tuple[int, ...]:
    """Rows through an n x n matrix of pair bits, read by slices.

    Line j of the matrix is column j padded with zeros to n characters,
    so its character i is the bit of the pair (i, j) when i < j and 0
    otherwise.  With the whole matrix reversed, line n-1-v spells the
    neighbours of v below v in binary, highest first, and character
    n-1-v of each line before it spells one neighbour above v, highest
    first.  So the strided slice down to line n-1-v, then the rest of
    that line, spell row v: no shift copies the body, and no step is
    taken per edge.
    """
    zeros = "0" * n
    flipped = "".join([spelled[j * (j - 1) // 2 : j * (j + 1) // 2] + zeros[j:] for j in range(n)])[::-1]
    return tuple([int(flipped[r : r * n : n] + flipped[r * n + r : r * n + n], 2) for r in range(n - 1, -1, -1)])


# ---------------------------------------------------------------------------
# DIMACS edge format


def _contiguous_relabel(G: Graph, start: int) -> tuple[dict[int, int] | None, dict[int, int]]:
    want = tuple(range(start, start + G.n))
    if G.nodes == want:
        return None, {v: v for v in G.nodes}
    relabel = {v: start + i for i, v in enumerate(G.nodes)}
    return relabel, relabel


def _dimacs_encode(G: Graph) -> tuple[str, dict[int, int] | None]:
    relabel, to = _contiguous_relabel(G, 1)
    lines = [f"p edge {G.n} {G.m}"]
    lines.extend(f"e {to[u]} {to[v]}" for u, v in G.edges)
    return "\n".join(lines) + "\n", relabel


def _dimacs_decode(payload: str) -> Graph:
    """One pass per line: edge lines take the first test, and their integer
    pairs go to the row builder that make_graph uses."""
    n = None
    declared = 0
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(payload.splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "e" and len(tokens) == 3 and n is not None:
            try:
                u = int(tokens[1])
                v = int(tokens[2])
            except ValueError:
                # Read again token by token, which raises at the first bad one.
                u, v = _int_token(tokens[1], lineno), _int_token(tokens[2], lineno)
            us.append(u)
            vs.append(v)
        elif head[0] == "c":
            continue
        elif head == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("problem line must be 'p edge <n> <m>'", line=lineno)
            n, declared = _count_token(tokens[2], lineno), _int_token(tokens[3], lineno)
        elif head == "e":
            if n is None:
                raise ParseError("edge line before problem line", line=lineno)
            raise ParseError("edge line must be 'e <u> <v>'", line=lineno)
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    if len(us) != declared:
        raise ParseError(f"declared {declared} edges, found {len(us)}")
    nodes = tuple(range(1, n + 1))
    return Graph(nodes, _pair_rows(nodes, us, vs))


def _int_token(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line=lineno) from None


def _count_token(token: str, lineno: int) -> int:
    """A declared vertex count: at least 0 and, like a graph6 size, at most _G6_MAX_LONG."""
    count = _int_token(token, lineno)
    if count < 0:
        raise ParseError(f"vertex count must be non-negative, got {count}", line=lineno)
    if count > _G6_MAX_LONG:
        raise ParseError(f"vertex count capped at {_G6_MAX_LONG}, got {count}", line=lineno)
    return count


# ---------------------------------------------------------------------------
# Edge list: "u v" per line, optional first line "n <count>" declaring
# vertices 1..count so isolated vertices survive the round trip.


def _edgelist_encode(G: Graph) -> tuple[str, dict[int, int] | None]:
    endpoints = {v for e in G.edges for v in e}
    if G.n and endpoints == set(G.nodes):
        lines = [f"{u} {v}" for u, v in G.edges]
        return "\n".join(lines) + "\n", None
    relabel, to = _contiguous_relabel(G, 1)
    lines = [f"n {G.n}"]
    lines.extend(f"{to[u]} {to[v]}" for u, v in G.edges)
    return "\n".join(lines) + "\n", relabel


def _edgelist_decode(payload: str) -> Graph:
    """One pass per line, as _dimacs_decode; without a header the nodes are the endpoints."""
    declared = None
    us: list[int] = []
    vs: list[int] = []
    seen_any = False
    for lineno, raw in enumerate(payload.splitlines(), 1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) == 2 and (seen_any or tokens[0] != "n"):
            try:
                u = int(tokens[0])
                v = int(tokens[1])
            except ValueError:
                u, v = _int_token(tokens[0], lineno), _int_token(tokens[1], lineno)
            us.append(u)
            vs.append(v)
        elif not seen_any and tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError("header must be 'n <count>'", line=lineno)
            declared = _count_token(tokens[1], lineno)
        else:
            raise ParseError(f"expected 'u v', got {raw.strip()!r}", line=lineno)
        seen_any = True
    if declared is not None:
        nodes = tuple(range(1, declared + 1))
    else:
        nodes = vertex_set({*us, *vs})
    return Graph(nodes, _pair_rows(nodes, us, vs))


# ---------------------------------------------------------------------------
# DOT (emit-only)


def _dot_encode(G: Graph) -> str:
    lines = ["graph {"]
    lines.extend(f"  {v};" for v in G.nodes)
    lines.extend(f"  {u} -- {v};" for u, v in G.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def infer_format(filename: str | None, payload: str | None = None) -> str:
    """Best-effort format detection from a file name, then the payload."""
    if filename:
        lowered = filename.lower()
        for suffix, fmt in ((".g6", GRAPH6), (".graph6", GRAPH6), (".col", DIMACS),
                            (".dimacs", DIMACS), (".el", EDGELIST), (".edgelist", EDGELIST)):
            if lowered.endswith(suffix):
                return fmt
    if payload is not None:
        stripped = payload.lstrip()
        if stripped.startswith(_G6_HEADER):
            return GRAPH6
        first = stripped.splitlines()[0].strip() if stripped else ""
        tokens = first.split()
        if tokens and tokens[0] in ("p", "c", "e") and not first.replace(" ", "").isdigit():
            return DIMACS
        if tokens and tokens[0] == "n" and len(tokens) == 2:
            return EDGELIST
        if len(tokens) == 2 and all(t.isdigit() for t in tokens):
            return EDGELIST
        if len(tokens) == 1 and first:
            return GRAPH6
    raise ValueError("cannot infer graph format; pass --format")
