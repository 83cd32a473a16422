"""Directed multigraphs with parallel-edge classes, paths and loops.

Parallel edges are grouped into named classes.  A class has a multiplicity
which is either a positive integer or ``math.inf``; the individual edges of
a class are addressed as ``(class id, index)`` pairs, so a class of infinite
multiplicity carries one edge per natural number.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError, _shown_int

INF = math.inf


class EdgeClass(NamedTuple):
    cid: str
    src: str
    dst: str
    mult: int | float  # positive int, or math.inf

    @property
    def is_infinite(self) -> bool:
        return self.mult == INF


class Edge(NamedTuple):
    cls: str
    idx: int


class Graph:
    """A finite-vertex directed multigraph.

    Immutable after construction.  Vertex and class order is declaration
    order and is used for all deterministic output.

    The constructor also derives the tables the point primitives read: each
    class's ends, each vertex's out-classes and out-degree.  Each vertex's
    out-edges, with the index-0 edge of an infinite class, are kept as one
    shared tuple of ``Edge`` objects once they have been listed in full, so
    a class is never enumerated ahead of use.
    These tables only cache what the vertices and classes determine; they
    take no part in equality or hashing.
    """

    def __init__(self, vertices: Iterable[str], classes: Iterable[tuple] = ()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex identifiers")
        vset = set(self.vertices)
        recs = []
        for rec in classes:
            c = EdgeClass(*rec) if not isinstance(rec, EdgeClass) else rec
            if c.src not in vset or c.dst not in vset:
                raise InputError(f"edge class {c.cid!r} uses an undeclared vertex")
            if c.mult != INF and (not isinstance(c.mult, int) or c.mult < 1):
                shown = _shown_int(c.mult) if isinstance(c.mult, int) else repr(c.mult)
                raise InputError(f"edge class {c.cid!r} has multiplicity {shown}")
            recs.append(c)
        self.edge_classes: tuple[EdgeClass, ...] = tuple(recs)
        self._by_id = {c.cid: c for c in self.edge_classes}
        if len(self._by_id) != len(self.edge_classes):
            raise InputError("duplicate edge-class identifiers")
        out: dict[str, list | tuple] = {v: [] for v in self.vertices}
        self._deg: dict[str, int | float] = dict.fromkeys(self.vertices, 0)
        for c in self.edge_classes:
            out[c.src].append(c)
            self._deg[c.src] += c.mult
        for v, cs in out.items():  # frozen in place: no second dict per graph
            out[v] = tuple(cs)
        self._out: dict[str, tuple[EdgeClass, ...]] = out
        self._edges: dict[str, tuple[Edge, ...]] = {}  # out_edges, once listed in full

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edge_classes == other.edge_classes
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edge_classes))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edge_classes)} edge classes)"

    # -- basic accessors ---------------------------------------------------

    def cls(self, cid: str) -> EdgeClass:
        try:
            return self._by_id[cid]
        except KeyError:
            raise InputError(f"unknown edge class {cid!r}") from None

    def check_vertex(self, v: str) -> str:
        if v not in self._out:
            raise InputError(f"unknown vertex {v!r}")
        return v

    def out_classes(self, v: str) -> tuple[EdgeClass, ...]:
        return self._out[self.check_vertex(v)]

    def edge_src(self, e: Edge) -> str:
        try:
            return self._by_id[e.cls].src
        except KeyError:
            raise InputError(f"unknown edge class {e.cls!r}") from None

    def edge_dst(self, e: Edge) -> str:
        try:
            return self._by_id[e.cls].dst
        except KeyError:
            raise InputError(f"unknown edge class {e.cls!r}") from None

    def check_edge(self, e: Edge) -> Edge:
        c = self.cls(e.cls)
        if e.idx < 0 or e.idx >= c.mult:  # an integer index never reaches INF
            raise InputError(f"edge index {_shown_int(e.idx)} out of range for class {e.cls!r}")
        return e

    def edge(self, spec) -> Edge:
        """Coerce ``"a"``, ``("a", 3)`` or an Edge into a validated Edge."""
        if isinstance(spec, Edge):
            return self.check_edge(spec)
        if isinstance(spec, str):
            return self.check_edge(Edge(spec, 0))
        cid, idx = spec
        return self.check_edge(Edge(cid, idx))

    def out_degree(self, v: str) -> int | float:
        try:
            return self._deg[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def out_edges(self, v: str) -> Iterator[Edge]:
        """All edges out of ``v`` in class order; an infinite class gives its
        index-0 edge.  Every call after the first full listing hands out the
        same ``Edge`` objects."""
        edges = self._edges.get(v)
        return self._list_out_edges(v) if edges is None else iter(edges)

    def _list_out_edges(self, v: str) -> Iterator[Edge]:
        # lazy, so that taking the first edge of a huge class costs one edge
        listed = []
        for c in self.out_classes(v):
            for i in range(1 if c.is_infinite else c.mult):
                listed.append(e := Edge(c.cid, i))
                yield e
        self._edges.setdefault(v, tuple(listed))

    # -- paths -------------------------------------------------------------

    def path(self, specs: Iterable = (), at: str | None = None) -> Path:
        """Build a validated path from edge specs; ``at`` names the vertex of
        an empty path."""
        edges = tuple(self.edge(s) for s in specs)
        if not edges:
            if at is None:
                raise InputError("an empty path needs its vertex")
            v = self.check_vertex(at)
            return Path(v, v, ())
        if at is not None and at != self.edge_src(edges[0]):
            raise InputError("path source does not match its first edge")
        for a, b in zip(edges, edges[1:]):
            if self.edge_dst(a) != self.edge_src(b):
                raise InputError(
                    f"edges {a.cls!r} and {b.cls!r} do not compose"
                )
        return Path(self.edge_src(edges[0]), self.edge_dst(edges[-1]), edges)

    def loop(self, specs: Iterable) -> Path:
        p = self.path(specs)
        if len(p.edges) == 0 or p.src != p.dst:
            raise InputError("a loop needs length >= 1 and equal endpoints")
        return p


class Path(NamedTuple):
    """A finite path; ``src == dst`` with no edges is the empty path at a vertex."""

    src: str
    dst: str
    edges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def path_concat(g: Graph, p: Path, q: Path) -> Path:
    """Concatenate two paths; the range of ``p`` must be the source of ``q``."""
    if p.dst != q.src:
        raise InputError(f"cannot concatenate: range {p.dst!r} != source {q.src!r}")
    if not p.edges:
        return q
    if not q.edges:
        return p
    return Path(p.src, q.dst, p.edges + q.edges)


def vertex_kind(g: Graph, v: str) -> str:
    """Classify a vertex as ``regular``, ``sink`` or ``infinite-emitter``.

    Sinks and infinite emitters together are the singular vertices.
    """
    deg = g.out_degree(v)
    if deg == 0:
        return "sink"
    if deg == INF:
        return "infinite-emitter"
    return "regular"


def is_singular(g: Graph, v: str) -> bool:
    return vertex_kind(g, v) != "regular"


def default_loop_search_length(g: Graph) -> int:
    """Exhaustive simple-loop search length for desk-scale graphs."""
    finite = [c.mult for c in g.edge_classes if not c.is_infinite]
    return len(g.vertices) * (1 + (max(finite) if finite else 0))


def _least_rotation(edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    first = min(edges)
    return min(edges[i:] + edges[:i] for i, e in enumerate(edges) if e == first)


def enumerate_simple_loops(g: Graph, max_len: int | None = None) -> list[Path]:
    """All simple loops of length <= max_len, one representative per cyclic
    rotation class (the lexicographically least rotation), in deterministic
    order.

    A loop is simple when it is not a proper power of a shorter loop; it may
    revisit vertices.  Infinite classes contribute the index-0 edge only.
    """
    from .boundary import check_listable  # boundary imports this module

    if max_len is None:
        max_len = default_loop_search_length(g)
    check_listable(g.edge_classes, 1)
    # the walks come in lexicographic order, which the sort by length keeps
    walks = sorted((w for w in _primitive_walks(g, max_len) if w == _least_rotation(w)), key=len)
    # closed walks along out-edges, so valid loops by construction
    return [Path(g.edge_src(w[0]), g.edge_src(w[0]), w) for w in walks]


def _primitive_walks(g: Graph, max_len: int) -> Iterator[tuple[Edge, ...]]:
    """The primitive closed walks of length <= max_len (length 1 always) in
    lexicographic order: a depth-first search with an explicit stack that
    takes out-edges in ``Edge`` order, the index-0 edge of an infinite
    class.  Across vertices the order is global, by first edge.  A closed
    walk never leaves the strongly connected component it starts in, so the
    steps between two components are dropped."""
    from .digraphs import condensation  # digraphs imports this module

    comp = dict(zip(g.vertices, condensation(g).comp))
    steps = {
        v: sorted((e, w) for e in g.out_edges(v) if comp[w := g.edge_dst(e)] == comp[v])
        for v in g.vertices
    }
    walk: list[Edge] = []
    stack = [iter(sorted(p for s in steps.values() for p in s))]
    while stack:
        for e, w in stack[-1]:  # one step from the top of the stack
            if not walk:
                start = g.edge_src(e)
            walk.append(e)
            if w == start and len(_primitive_root_edges(seq := tuple(walk))[0]) == len(seq):
                yield seq
            if len(walk) < max_len:
                stack.append(iter(steps[w]))
            else:
                walk.pop()
            break
        else:
            stack.pop()
            del walk[-1:]  # the edge whose steps ran out; none below a first step


def _primitive_root_edges(edges: tuple[Edge, ...]) -> tuple[tuple[Edge, ...], int]:
    n = len(edges)
    for p in range(1, n // 2 + 1):  # a proper root is at most half as long
        if n % p == 0 and edges[:p] * (n // p) == edges:
            return edges[:p], n // p
    return edges, 1


def condition_l(g: Graph) -> tuple[bool, Path | None]:
    """Decide whether every loop in the graph has an exit.

    Returns ``(True, None)`` or ``(False, witness)`` with an exitless simple
    loop.  An exitless loop lives entirely inside the set of vertices with
    total out-multiplicity exactly one, where following the unique out-edge
    is a function, so it suffices to look for a cycle of that function.
    """
    step: dict[str, Edge] = {}
    for v in g.vertices:
        if g.out_degree(v) == 1:
            step[v] = next(g.out_edges(v))
    state: dict[str, int] = {}  # 0 = on stack, 1 = done
    for v0 in g.vertices:
        if v0 not in step or v0 in state:
            continue
        chain = []
        v = v0
        while v in step and v not in state:
            state[v] = 0
            chain.append(v)
            v = g.edge_dst(step[v])
        if v in step and state.get(v) == 0:
            i = chain.index(v)
            edges = [step[u] for u in chain[i:]]
            witness = g.loop(_least_rotation(tuple(edges)))
            return False, witness
        for u in chain:
            state[u] = 1
    return True, None

