"""Textual formats: the line-based graph description language, point and
witness codecs, and partition files.

Graph files::

    graph NAME
    vertex u, v
    edge a: u -> v          # multiplicity 1
    edge p * 3: u -> v      # three parallel edges p[0], p[1], p[2]
    edge q * inf: v -> v    # an infinite parallel class

Points are dotted edge lists: ``@v`` (the empty path at v), ``a.b``,
``a.(b)*``, ``A[6].(B[0])*``.  Bare edge names address index 0; classes of
multiplicity one always print bare.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Mapping, NamedTuple

from .boundary import BoundaryPoint, canonicalize, minimal_witness
from .errors import InputError, ParseError
from .graphs import INF, Edge, Graph, Path

_IDENT = r"[A-Za-z0-9_^]+"
_GRAPH_RE = re.compile(rf"^graph\s+({_IDENT})\s*$")
_VERTEX_RE = re.compile(r"^vertex\s+(.+)$")
_EDGE_RE = re.compile(
    rf"^edge\s+({_IDENT})\s*(?:\*\s*(\d+|inf))?\s*:\s*({_IDENT})\s*->\s*({_IDENT})\s*$"
)
_EDGE_TOKEN_RE = re.compile(rf"^({_IDENT})(?:\[(\d+)\])?$")


class GraphDocument(NamedTuple):
    name: str
    graph: Graph
    lines: dict[str, int]  # vertex/class identifier -> source line


def parse_graph(text: str) -> GraphDocument:
    """Parse the graph description language with positioned diagnostics."""
    name = None
    vertices: list[str] = []
    classes: list[tuple] = []
    lines: dict[str, int] = {}
    seen_vertices: set[str] = set()
    seen_classes: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip())  # a column is lead + 1 + its offset in line
        if name is None:
            m = _GRAPH_RE.match(line)
            if not m:
                raise ParseError("expected a 'graph NAME' header", lineno, 1)
            name = m.group(1)
            continue
        m = _VERTEX_RE.match(line)
        if m:
            for column, v in _fields(m.group(1), lead + m.start(1) + 1, ","):
                if not re.fullmatch(_IDENT, v):
                    raise ParseError(f"bad vertex identifier {v!r}", lineno, column)
                if v in seen_vertices:
                    raise ParseError(f"duplicate vertex {v!r}", lineno, column)
                seen_vertices.add(v)
                vertices.append(v)
                lines[v] = lineno
            continue
        m = _EDGE_RE.match(line)
        if m:
            cid, mult_tok, src, dst = m.groups()
            if cid in seen_classes:
                raise ParseError(f"duplicate edge identifier {cid!r}", lineno, lead + m.start(1) + 1)
            seen_classes.add(cid)
            for group, v in ((3, src), (4, dst)):
                if v not in seen_vertices:
                    raise ParseError(f"undeclared vertex {v!r}", lineno, lead + m.start(group) + 1)
            if mult_tok is None:
                mult: int | float = 1
            elif mult_tok == "inf":
                mult = INF
            else:
                mult = _int_token(mult_tok, "multiplicity", lineno, lead + m.start(2) + 1)
                if mult < 1:
                    raise ParseError("multiplicity must be >= 1", lineno, lead + m.start(2) + 1)
            classes.append((cid, src, dst, mult))
            lines[cid] = lineno
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno, 1)
    if name is None:
        raise ParseError("empty graph document", 1, 1)
    try:
        graph = Graph(vertices, classes)
    except InputError as exc:
        raise ParseError(str(exc)) from exc
    return GraphDocument(name, graph, lines)


def _fields(text: str, column: int, sep: str):
    """The ``sep``-separated fields of ``text``, which starts at ``column``
    of its line, stripped, each with the column of its first character."""
    for field in text.split(sep):
        yield column + len(field) - len(field.lstrip()), field.strip()
        column += len(field) + 1


def print_graph(doc: GraphDocument | Graph, name: str | None = None) -> str:
    if isinstance(doc, GraphDocument):
        name, g = doc.name, doc.graph
    else:
        name, g = name or "G", doc
    out = [f"graph {name}"]
    if g.vertices:
        out.append("vertex " + ", ".join(g.vertices))
    for c in g.edge_classes:
        mult = "" if c.mult == 1 else (" * inf" if c.is_infinite else f" * {c.mult}")
        out.append(f"edge {c.cid}{mult}: {c.src} -> {c.dst}")
    return "\n".join(out) + "\n"


def _int_token(tok: str, what: str, line: int | None = None, column: int | None = None) -> int:
    """The integer a token spells.  A token ``int`` refuses (not an integer,
    or more digits than Python's conversion limit) is a ParseError."""
    try:
        return int(tok)
    except ValueError:
        shown = repr(tok) if len(tok) <= 24 else f"{tok[:12]!r}... ({len(tok)} characters)"
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{what} must be an integer of at most {limit} digits, got {shown}", line, column) from None


# -- edges, paths, points ----------------------------------------------------


def parse_edge(g: Graph, token: str) -> Edge:
    m = _EDGE_TOKEN_RE.match(token.strip())
    if not m:
        raise ParseError(f"bad edge token {token!r}")
    cid, idx = m.group(1), _int_token(m.group(2) or "0", "edge index")
    return g.check_edge(Edge(cid, idx))


def print_edge(g: Graph, e: Edge) -> str:
    return e.cls if g.cls(e.cls).mult == 1 else f"{e.cls}[{e.idx}]"


def parse_path(g: Graph, text: str) -> Path:
    text = text.strip()
    if text.startswith("@"):
        return g.path((), at=text[1:])
    return g.path([parse_edge(g, tok) for tok in text.split(".")])


def print_path(g: Graph, p: Path) -> str:
    if not p.edges:
        return f"@{p.src}"
    return ".".join(print_edge(g, e) for e in p.edges)


_POINT_RE = re.compile(r"^(?:(?P<pre>[^()]*?)\.)?\((?P<per>[^()]+)\)\*$")


def parse_point(g: Graph, text: str) -> BoundaryPoint:
    """Parse and canonicalize a point; finite forms must end at a singular
    vertex."""
    if not isinstance(text, str):  # a table entry of a JSON file
        raise ParseError(f"a point must be written as text, got {text!r}")
    text = text.strip()
    m = _POINT_RE.match(text)
    if m:
        per = [parse_edge(g, t) for t in m.group("per").split(".")]
        pre = []
        if m.group("pre"):
            pre = [parse_edge(g, t) for t in m.group("pre").split(".")]
        src = g.edge_src(pre[0]) if pre else g.edge_src(per[0])
        return canonicalize(g, src, pre, per)
    if text.startswith("@"):
        return canonicalize(g, g.check_vertex(text[1:]))
    edges = [parse_edge(g, t) for t in text.split(".")]
    return canonicalize(g, g.edge_src(edges[0]), edges)


def print_point(g: Graph, x: BoundaryPoint) -> str:
    if x.is_finite:
        if not x.pre:
            return f"@{x.src}"
        return ".".join(print_edge(g, e) for e in x.pre)
    per = "(" + ".".join(print_edge(g, e) for e in x.period) + ")*"
    if not x.pre:
        return per
    return ".".join(print_edge(g, e) for e in x.pre) + "." + per


# -- witnesses and pseudogroup elements ---------------------------------------


def witness_to_json(w) -> dict:
    return {
        "h": sorted([print_point(w.E, x), print_point(w.F, y)] for x, y in w.h.items()),
        "k1": table_json(w.E, w.k1),
        "l1": table_json(w.E, w.l1),
        "k1p": table_json(w.F, w.k1p),
        "l1p": table_json(w.F, w.l1p),
    }


def table_json(g: Graph, table: Mapping[BoundaryPoint, int]) -> list:
    """The ``[point, value]`` rows of a table, sorted by the printed point,
    which tells the canonical points of a graph apart."""
    return sorted([print_point(g, x), v] for x, v in table.items())


def print_witness(w) -> str:
    return json.dumps(witness_to_json(w), indent=2) + "\n"


def _json_tables(text: str, what: str, keys: tuple[str, ...]) -> dict:
    """A JSON object that holds (at least) the named tables."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{what} JSON must be an object")
    for key in keys:
        if key not in data:
            raise ParseError(f"{what} JSON misses the {key!r} table")
    return data


def _point_table(g: Graph, entries, value) -> dict:
    """A table from ``[point, value]`` pairs; a point may appear once."""
    table = {}
    for a, v in entries:
        x = parse_point(g, a)
        if x in table:
            raise ParseError(f"the point {a!r} is listed twice")
        table[x] = value(v)
    return table


def _json_int(v) -> int:
    if type(v) is not int:  # int() would truncate 1.9 and read true as 1
        raise ParseError(f"a table value must be a JSON integer, got {json.dumps(v)}")
    return v


def parse_witness(E: Graph, F: Graph, text: str):
    from .dynamics import OrbitWitness

    data = _json_tables(text, "witness", ("h", "k1", "l1", "k1p", "l1p"))
    try:
        h = _point_table(E, data["h"], lambda b: parse_point(F, b))
        k1, l1 = (_point_table(E, data[key], _json_int) for key in ("k1", "l1"))
        k1p, l1p = (_point_table(F, data[key], _json_int) for key in ("k1p", "l1p"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed witness table entry: {exc}") from exc
    return OrbitWitness(E, F, h, k1, l1, k1p, l1p)


def element_to_json(g: Graph, p) -> dict:
    return {
        "alpha": sorted([print_point(g, x), print_point(g, y)] for x, y in p.alpha.items()),
        "m": table_json(g, p.m),
        "n": table_json(g, p.n),
    }


def parse_element(g: Graph, text: str):
    from .dynamics import PseudogroupElement

    data = _json_tables(text, "element", ("alpha", "m", "n"))
    try:
        alpha = _point_table(g, data["alpha"], lambda b: parse_point(g, b))
        m, n = (_point_table(g, data[key], _json_int) for key in ("m", "n"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed element table entry: {exc}") from exc
    return PseudogroupElement(g, alpha, m, n)


# -- groupoid elements and germs ----------------------------------------------


def print_groupoid_element(g: Graph, e) -> str:
    return f"({print_point(g, e.x)} | {e.k} | {print_point(g, e.y)})"


def parse_groupoid_element(g: Graph, text: str):
    from .groupoid import GroupoidElement

    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("groupoid element must look like (x | k | y)")
    parts = [p.strip() for p in text[1:-1].split("|")]
    if len(parts) != 3:
        raise ParseError("groupoid element must have three | -separated parts")
    x = parse_point(g, parts[0])
    k = _int_token(parts[1], "cocycle")
    y = parse_point(g, parts[2])
    witness = minimal_witness(g, x, y, k)
    if witness is None:
        raise InputError("the two points are not shift equivalent at this cocycle")
    return GroupoidElement(x, k, y, *witness)


def print_germ(g: Graph, germ) -> str:
    return f"[{print_path(g, germ.mu)} | {print_path(g, germ.nu)} | {print_point(g, germ.x)}]"


def parse_germ(g: Graph, text: str):
    from .weyl import germ_make

    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("germ must look like [mu | nu | x]")
    parts = [p.strip() for p in text[1:-1].split("|")]
    if len(parts) != 3:
        raise ParseError("germ must have three | -separated parts")
    return germ_make(g, parse_path(g, parts[0]), parse_path(g, parts[1]), parse_point(g, parts[2]))


# -- partition files -----------------------------------------------------------

_SPLIT_RE = re.compile(rf"^split\s+({_IDENT})\s*:\s*(.+)$")


def parse_partition(g: Graph, text: str) -> OutSplitPartition:
    """Partition files: one ``split v: {e1,e2} | {e3}`` line per split
    vertex; unmentioned non-sink vertices keep their whole out-edge set as a
    single block.  Bare class names place the whole class; ``cls[i]`` places
    a single edge.  Syntax errors give the column of the block, token or
    index at fault.  A vertex split twice is refused at its second line."""
    from .moves import OutSplitPartition, _class_block, trivial_partition

    blocks = dict(trivial_partition(g).blocks)
    split: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip())  # a column is lead + 1 + its offset in line
        m = _SPLIT_RE.match(line)
        if not m:
            raise ParseError(f"unrecognized partition line {line!r}", lineno, 1)
        v = g.check_vertex(m.group(1))
        if v in split:
            raise ParseError(f"vertex {v!r} is split twice", lineno, lead + m.start(1) + 1)
        split.add(v)
        cells = []
        for start, cell in _fields(m.group(2), lead + m.start(2) + 1, "|"):
            if not (cell.startswith("{") and cell.endswith("}")):
                raise ParseError("each block must be brace-delimited", lineno, start)
            whole, edges = [], []
            for column, tok in _fields(cell[1:-1], start + 1, ","):
                if not tok:
                    continue
                m2 = _EDGE_TOKEN_RE.match(tok)
                if not m2:
                    raise ParseError(f"bad edge token {tok!r}", lineno, column)
                cid, idx = m2.group(1), m2.group(2)
                c = g.cls(cid)
                if idx is None:
                    whole.append(c)
                else:
                    edges.append(g.check_edge(Edge(cid, _int_token(idx, "edge index", lineno, column + m2.start(2)))))
            cells.append(_class_block(whole, edges))
        blocks[v] = tuple(cells)
    return OutSplitPartition(blocks)
