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

Graph and partition files break into lines at ``\\n``, ``\\r\\n`` and ``\\r``
only, as a file read in text mode does; the other characters
``str.splitlines`` breaks at (``\\v``, ``\\f``, ``\\x1c`` to ``\\x1e``,
``\\x85``, ``\\u2028``, ``\\u2029``) are blanks within a line.  A reader names
the first fault in reading order: the first line at fault and, on it, the
first item from the left, except that an edge line is checked for a
repeated class id, then an undeclared source, then range, then its
multiplicity.  Every error in a graph file is a ParseError with its line
and column, and so is every syntax error in a partition file; a vertex,
class or index the graph lacks is an InputError without a position.  A
point's tokens are checked in turn, the period's before the preperiod's,
then the path they make.

Valid input is read in one pass.  One pattern reads every edge line of a
graph file, and each run of edge lines between other lines is checked at
once by set sizes; a vertex list or a point's dotted tokens are checked
whole by one compiled pattern.  A column is worked out only for a line
that fails a check.  A partition file's split line is read by one walk
over its blocks and tokens, which names the first at fault.  On 2 vCPUs
with Python 3.11, ``parse_graph`` takes about 2 us per line of a
10^3-line file and 4 to 5 us at 10^5 lines, ``parse_point`` about 4 us
per point (``scripts/parse_curve.py``), and ``parse_partition`` about 43
us per partition of a random 4-vertex graph.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import repeat
from typing import Mapping, NamedTuple, NoReturn

from .boundary import BoundaryPoint, canonicalize, check_listable, minimal_witness
from .errors import InputError, ParseError
from .graphs import INF, Edge, EdgeClass, Graph, Path

_IDENT = r"(?a:[\w^]+)"  # [A-Za-z0-9_^]+ as an ASCII word class, which compiles and matches faster
_GRAPH_RE = re.compile(rf"^graph\s+({_IDENT})\s*$")
# a vertex line whose list is well formed; any other is refused by _vertex_fault
_VERTEX_LINE_RE = re.compile(rf"vertex\s+({_IDENT}(?:\s*,\s*{_IDENT})*)")
_B = r"[^\S\n]"  # a blank: any white space but the line break
# an edge line as it stands in the file, blanks and a comment included
_EDGE_LINE = (
    rf"{_B}*edge{_B}+({_IDENT}){_B}*(?:\*{_B}*(\d+|inf))?{_B}*:{_B}*({_IDENT}){_B}*->{_B}*({_IDENT}){_B}*(?:#.*)?"
)
# one row per line of a text broken at "\n": an edge line's id, multiplicity,
# source and range, or any other line whole in the last field
_ROWS_RE = re.compile(rf"^(?:{_EDGE_LINE}|(.*))$", re.MULTILINE)
_TOKEN = rf"{_IDENT}(?:\[\d+\])?"
_TOKEN_RE = re.compile(rf"({_IDENT})(?:\[(\d+)\])?")
# a point as print_point writes it: a dotted list, or dotted tokens before
# a parenthesized period
_POINT_TEXT_RE = re.compile(rf"(?:{_TOKEN}\.)*(?:{_TOKEN}|\((?:{_TOKEN}\.)*{_TOKEN}\)\*)")


class GraphDocument(NamedTuple):
    name: str
    graph: Graph
    lines: dict[str, int]  # vertex/class identifier -> source line


def _newlines(text: str) -> str:
    """The text with each ``\\r\\n`` and ``\\r`` made a ``\\n``, so that it breaks
    into lines at ``\\n`` alone, as a file opened in text mode does."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_graph(text: str) -> GraphDocument:
    """Parse the graph description language with positioned diagnostics.

    One pattern splits the text into rows, one per line, and reads every
    edge line.  Each run of edge lines between other lines is checked at
    once, by set sizes; any other line loses its comment and is told by its
    keyword, and a vertex line's list is checked at once.  Columns are
    worked out only for a line that fails a check, by a walk that names the
    token at fault."""
    name = None
    vertices: list[str] = []
    classes: list[EdgeClass] = []
    lines: dict[str, int] = {}
    seen_vertices: set[str] = set()
    seen_classes: set[str] = set()
    text = _newlines(text)
    rows = _ROWS_RE.findall(text)
    others = [i for i, row in enumerate(rows) if not row[0]]  # the lines that are not edge lines
    start = 0  # the first row not yet read
    for i in [*others, len(rows)]:
        if start < i:  # rows start to i - 1 are edge lines
            if name is None:
                raise ParseError("expected a 'graph NAME' header", start + 1, 1)
            cids, toks, srcs, dsts, _ = zip(*rows[start:i])
            mults = _multiplicities(toks)
            if not (
                mults
                and seen_vertices.issuperset(srcs)
                and seen_vertices.issuperset(dsts)
                and seen_classes.isdisjoint(cids)
                and len(set(cids)) == len(cids)
            ):
                _edge_fault(text.split("\n")[start:i], start + 1, seen_vertices, seen_classes)
            seen_classes.update(cids)
            # tuple.__new__ makes each record without a Python-level call
            classes += map(tuple.__new__, repeat(EdgeClass), zip(cids, srcs, dsts, mults))
            lines.update(zip(cids, range(start + 1, i + 1)))
        if i == len(rows):
            break
        start, lineno, raw = i + 1, i + 1, rows[i][4]
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            m = _GRAPH_RE.match(line)
            if not m:
                raise ParseError("expected a 'graph NAME' header", lineno, 1)
            name = m.group(1)
            continue
        m = _VERTEX_LINE_RE.fullmatch(line)
        names = m.group(1).replace(",", " ").split() if m else []
        if not names or len(set(names)) < len(names) or not seen_vertices.isdisjoint(names):
            _vertex_fault(line, raw, lineno, seen_vertices)
        seen_vertices.update(names)
        vertices += names
        lines.update(dict.fromkeys(names, lineno))
    if name is None:
        raise ParseError("empty graph document", 1, 1)
    try:
        graph = Graph(vertices, classes)
    except InputError as exc:
        raise ParseError(str(exc)) from exc
    return GraphDocument(name, graph, lines)


def _multiplicities(toks: tuple[str, ...]) -> list | None:
    """The multiplicities the tokens of a run of edge lines spell (none: 1),
    or None when one is 0 or has more digits than ``int`` reads."""
    value: dict[str, int | float] = {"": 1, "inf": INF}
    try:
        for tok in set(toks).difference(value):
            value[tok] = int(tok)
    except ValueError:
        return None
    return list(map(value.__getitem__, toks)) if min(value.values()) > 0 else None


def _vertex_fault(line: str, raw: str, lineno: int, seen_vertices: set[str]) -> NoReturn:
    """Raise the error of a line that failed the vertex-line check, ``line``
    being ``raw`` without blanks and comment, at the column of the first
    identifier that is malformed or declared before; an edge line that did
    not fit its pattern, or any other line, is unrecognized."""
    m = re.match(r"^vertex\s+(.+)$", line)
    if not m:
        raise ParseError(f"unrecognized line {line!r}", lineno, 1)
    names: set[str] = set()
    for column, v in _fields(m.group(1), _column(raw, m.start(1)), ","):
        if not re.fullmatch(_IDENT, v):
            raise ParseError(f"bad vertex identifier {v!r}", lineno, column)
        if v in seen_vertices or v in names:
            raise ParseError(f"duplicate vertex {v!r}", lineno, column)
        names.add(v)
    raise AssertionError("a vertex line failed a check that each of its identifiers passes")


def _edge_fault(raws: list[str], lineno: int, seen_vertices: set[str], seen_classes: set[str]) -> NoReturn:
    """Raise the error of the first edge line at fault in a run that failed
    a check, the run's first line being ``lineno``, at the column of the
    token at fault: a repeated class id, then an undeclared source, then
    range, then the multiplicity."""
    edge_line, seen_classes = re.compile(_EDGE_LINE).fullmatch, set(seen_classes)
    for lineno, raw in enumerate(raws, lineno):
        m = edge_line(raw)
        cid, mult_tok, src, dst = m.groups()
        if cid in seen_classes:
            raise ParseError(f"duplicate edge identifier {cid!r}", lineno, m.start(1) + 1)
        seen_classes.add(cid)
        for group, v in ((3, src), (4, dst)):
            if v not in seen_vertices:
                raise ParseError(f"undeclared vertex {v!r}", lineno, m.start(group) + 1)
        if mult_tok not in (None, "inf") and _int_token(mult_tok, "multiplicity", lineno, m.start(2) + 1) < 1:
            raise ParseError("multiplicity must be >= 1", lineno, m.start(2) + 1)
    raise AssertionError("a run of edge lines failed a check that each of its lines passes")


def _column(raw: str, offset: int) -> int:
    """The column, counted from 1, of the character ``offset`` places into
    the line ``raw`` past its leading blanks."""
    return len(raw) - len(raw.lstrip()) + offset + 1


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
    m = _TOKEN_RE.fullmatch(token.strip())
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


def parse_point(g: Graph, text: str) -> BoundaryPoint:
    """Parse and canonicalize a point; finite forms must end at a singular
    vertex.

    A text that one pattern finds well formed, ``pre.(period)*`` or a
    dotted list, is read in one pass.  Any other text, or one whose edges
    canonicalize refuses, is read again a token at a time: the period's
    tokens, then the preperiod's, each for its syntax, index, class and
    index range, and then canonicalize, so the first fault is the one
    named."""
    if not isinstance(text, str):  # a table entry of a JSON file
        raise ParseError(f"a point must be written as text, got {text!r}")
    if _POINT_TEXT_RE.fullmatch(text):
        cut = text.find("(")  # -1 on a finite point
        try:
            # ValueError: an index past int's digit limit; tuple.__new__
            # makes each edge without a Python-level call
            edges = [tuple.__new__(Edge, (cid, int(idx) if idx else 0)) for cid, idx in _TOKEN_RE.findall(text)]
            n = len(edges) if cut < 0 else len(edges) - 1 - text.count(".", cut)  # preperiod edges
            return canonicalize(g, g.edge_src(edges[0]), edges[:n], edges[n:])
        except (ValueError, InputError):
            pass  # read again below, which names the first fault
    text = text.strip()
    m = re.match(r"^(?:(?P<pre>[^()]*?)\.)?\((?P<per>[^()]+)\)\*$", text)
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
    # JSONDecodeError, an integer past Python's digit limit, or nesting
    # deeper than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{what} JSON must be an object")
    for key in keys:
        if key not in data:
            raise ParseError(f"{what} JSON misses the {key!r} table")
    return data


def _point_table(g: Graph, data: dict, key: str, value) -> dict:
    """The table ``data[key]``, a JSON list of ``[point, value]`` pairs; a
    point may appear once."""
    entries = data[key]
    if type(entries) is not list or not all(type(e) is list and len(e) == 2 for e in entries):
        raise ParseError(f"the {key!r} table must be a list of [point, value] pairs")
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
    h = _point_table(E, data, "h", lambda b: parse_point(F, b))
    k1, l1 = (_point_table(E, data, key, _json_int) for key in ("k1", "l1"))
    k1p, l1p = (_point_table(F, data, key, _json_int) for key in ("k1p", "l1p"))
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
    alpha = _point_table(g, data, "alpha", lambda b: parse_point(g, b))
    m, n = (_point_table(g, data, key, _json_int) for key in ("m", "n"))
    return PseudogroupElement(g, alpha, m, n)


# -- groupoid elements and germs ----------------------------------------------


def _three_parts(text: str, what: str, form: str) -> list[str]:
    """The three ``|``-separated parts of ``text``, enclosed in the brackets
    that ``form`` shows."""
    text = text.strip()
    if not (text.startswith(form[0]) and text.endswith(form[-1])):
        raise ParseError(f"{what} must look like {form}")
    parts = [p.strip() for p in text[1:-1].split("|")]
    if len(parts) != 3:
        raise ParseError(f"{what} must have three | -separated parts")
    return parts


def print_groupoid_element(g: Graph, e) -> str:
    return f"({print_point(g, e.x)} | {e.k} | {print_point(g, e.y)})"


def parse_groupoid_element(g: Graph, text: str):
    from .groupoid import GroupoidElement

    x, k, y = _three_parts(text, "groupoid element", "(x | k | y)")
    x, k, y = parse_point(g, x), _int_token(k, "cocycle"), parse_point(g, y)
    witness = minimal_witness(g, x, y, k)
    if witness is None:
        raise InputError("the two points are not shift equivalent at this cocycle")
    return GroupoidElement(x, k, y, *witness)


def print_germ(g: Graph, germ) -> str:
    return f"[{print_path(g, germ.mu)} | {print_path(g, germ.nu)} | {print_point(g, germ.x)}]"


def parse_germ(g: Graph, text: str):
    from .weyl import germ_make

    mu, nu, x = _three_parts(text, "germ", "[mu | nu | x]")
    return germ_make(g, parse_path(g, mu), parse_path(g, nu), parse_point(g, x))


# -- partition files -----------------------------------------------------------

# compiled when a partition is first read, as most commands read none
_SPLIT = rf"^split\s+({_IDENT})\s*:\s*(.+)$"


def parse_partition(g: Graph, text: str) -> OutSplitPartition:
    """Partition files: one ``split v: {e1,e2} | {e3}`` line per split
    vertex; unmentioned non-sink vertices keep their whole out-edge set as a
    single block.  Bare class names place the whole class; ``cls[i]`` places
    a single edge.  Syntax errors give the column of the block, token or
    index at fault.  A vertex split twice is refused at its second line.

    A split line is read in one walk, block by block and token by token,
    which names the first block or token at fault."""
    from .moves import OutSplitPartition, _class_block

    check_listable(g.edge_classes)
    split_line, token = re.compile(_SPLIT).match, _TOKEN_RE.fullmatch
    split: dict[str, tuple] = {}
    for lineno, raw in enumerate(_newlines(text).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = split_line(line)
        if not m:
            raise ParseError(f"unrecognized partition line {line!r}", lineno, 1)
        v = g.check_vertex(m.group(1))
        if v in split:
            raise ParseError(f"vertex {v!r} is split twice", lineno, _column(raw, m.start(1)))
        blocks = []
        for start, cell in _fields(m.group(2), _column(raw, m.start(2)), "|"):
            if not (cell.startswith("{") and cell.endswith("}")):
                raise ParseError("each block must be brace-delimited", lineno, start)
            whole, edges = [], []
            for column, tok in _fields(cell[1:-1], start + 1, ","):
                if not tok:
                    continue
                t = token(tok)
                if not t:
                    raise ParseError(f"bad edge token {tok!r}", lineno, column)
                cid, idx = t.groups()
                c = g.cls(cid)
                if idx is None:
                    whole.append(c)
                else:
                    edges.append(g.check_edge(Edge(cid, _int_token(idx, "edge index", lineno, column + t.start(2)))))
            blocks.append(_class_block(whole, edges))
        split[v] = tuple(blocks)
    # every vertex with out-edges and no split line keeps them in one block
    blocks = {v: split.pop(v, None) or (_class_block(out),) for v in g.vertices if (out := g.out_classes(v))}
    return OutSplitPartition(blocks | split)
