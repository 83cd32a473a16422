"""The DSL readers as they were before they read each text in one
validating pass: ``parse_graph``, ``parse_edge``, ``parse_path``,
``parse_point`` and ``parse_partition``, each trying its patterns one after another, working
out every column as it goes, and breaking lines with ``str.splitlines``.
Kept word for word as the oracle that ``oeg.dsl`` is checked against; only
the imports are the library's.  :class:`LineBreaks` hands them a text that
breaks only where the library's readers break it, at ``\\n``, ``\\r\\n``
and ``\\r``."""

from __future__ import annotations

import re
import sys

from oeg.boundary import BoundaryPoint, canonicalize
from oeg.dsl import GraphDocument
from oeg.errors import InputError, ParseError
from oeg.graphs import INF, Edge, Graph, Path
from oeg.moves import OutSplitPartition


class LineBreaks(str):
    """A text whose ``splitlines`` breaks only at ``\\n``, ``\\r\\n`` and
    ``\\r``, as a file read in text mode does."""

    def splitlines(self, keepends: bool = False) -> list[str]:
        assert not keepends
        lines = re.split(r"\r\n|\r|\n", str(self))
        return lines[:-1] if lines[-1] == "" else lines


_IDENT = r"[A-Za-z0-9_^]+"
_GRAPH_RE = re.compile(rf"^graph\s+({_IDENT})\s*$")
_VERTEX_RE = re.compile(r"^vertex\s+(.+)$")
_EDGE_RE = re.compile(
    rf"^edge\s+({_IDENT})\s*(?:\*\s*(\d+|inf))?\s*:\s*({_IDENT})\s*->\s*({_IDENT})\s*$"
)
_EDGE_TOKEN_RE = re.compile(rf"^({_IDENT})(?:\[(\d+)\])?$")


def parse_graph(text: str) -> GraphDocument:
    """Parse the graph description language with positioned diagnostics."""
    name = None
    vertices: list[str] = []
    classes: list[tuple] = []
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
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno, 1)
    if name is None:
        raise ParseError("empty graph document", 1, 1)
    try:
        graph = Graph(vertices, classes)
    except InputError as exc:
        raise ParseError(str(exc)) from exc
    return GraphDocument(name, graph)


def _fields(text: str, column: int, sep: str):
    """The ``sep``-separated fields of ``text``, which starts at ``column``
    of its line, stripped, each with the column of its first character."""
    for field in text.split(sep):
        yield column + len(field) - len(field.lstrip()), field.strip()
        column += len(field) + 1


def _int_token(tok: str, what: str, line: int | None = None, column: int | None = None) -> int:
    """The integer a token spells.  A token ``int`` refuses (not an integer,
    or more digits than Python's conversion limit) is a ParseError."""
    try:
        return int(tok)
    except ValueError:
        shown = repr(tok) if len(tok) <= 24 else f"{tok[:12]!r}... ({len(tok)} characters)"
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{what} must be an integer of at most {limit} digits, got {shown}", line, column) from None


def parse_edge(g: Graph, token: str) -> Edge:
    m = _EDGE_TOKEN_RE.match(token.strip())
    if not m:
        raise ParseError(f"bad edge token {token!r}")
    cid, idx = m.group(1), _int_token(m.group(2) or "0", "edge index")
    return g.check_edge(Edge(cid, idx))


def parse_path(g: Graph, text: str) -> Path:
    text = text.strip()
    if text.startswith("@"):
        return g.path((), at=text[1:])
    return g.path([parse_edge(g, tok) for tok in text.split(".")])


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


_SPLIT_RE = re.compile(rf"^split\s+({_IDENT})\s*:\s*(.+)$")


def parse_partition(g: Graph, text: str) -> OutSplitPartition:
    """Partition files: one ``split v: {e1,e2} | {e3}`` line per split
    vertex; unmentioned non-sink vertices keep their whole out-edge set as a
    single block.  Bare class names place the whole class; ``cls[i]`` places
    a single edge.  Syntax errors give the column of the block, token or
    index at fault.  A vertex split twice is refused at its second line."""
    from oeg.moves import OutSplitPartition, _class_block, trivial_partition

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
