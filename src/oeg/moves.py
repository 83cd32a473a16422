"""Graph transformations: out-splitting, amplification, transitive closure,
and saturation along an infinitely-parallel pattern.

Out-splitting refines each vertex along a proper partition of its outgoing
edges and carries a boundary-path conjugacy.  Amplification replaces every
connected vertex pair by an infinite parallel class; the amplified
transitive closure does the same for every reachable pair.  Saturation adds
an infinite class shadowing a path pattern whose head already has infinitely
many parallels, together with the rewriting bijection between the two
boundary spaces.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Sequence

from .boundary import BoundaryPoint, canonicalize, check_listable
from .errors import InputError
from .graphs import INF, Edge, EdgeClass, Graph, Path


# -- out-splitting -----------------------------------------------------------


class Block(NamedTuple):
    """One cell of an out-edge partition: finitely many named edges plus
    whole infinite classes."""

    edges: frozenset[Edge] = frozenset()
    infinite_classes: frozenset[str] = frozenset()

    @property
    def is_infinite(self) -> bool:
        return bool(self.infinite_classes)


class OutSplitPartition(NamedTuple):
    """Ordered blocks partitioning the outgoing edges of every non-sink
    vertex; sinks get no blocks."""

    blocks: dict[str, tuple[Block, ...]]

    def m(self, v: str) -> int:
        return len(self.blocks.get(v, ()))


def _class_block(classes: Sequence[EdgeClass], edges: Iterable[Edge] = ()) -> Block:
    """The block of ``edges``, every edge of the finite ``classes`` and the infinite ones whole."""
    fin = (Edge(c.cid, i) for c in classes if not c.is_infinite for i in range(c.mult))
    return Block(frozenset([*edges, *fin]), frozenset(c.cid for c in classes if c.is_infinite))


def trivial_partition(g: Graph) -> OutSplitPartition:
    check_listable(g.edge_classes)
    return OutSplitPartition({v: (_class_block(out),) for v in g.vertices if (out := g.out_classes(v))})


def check_partition(g: Graph, p: OutSplitPartition) -> dict[Edge | str, tuple[str, int]]:
    """Validate properness, raising with the violated clause; return each
    item's vertex and 0-based block index, an item being a finite edge or
    an infinite class id.  Each item is checked once, to leave its vertex
    and sit in no earlier block, so coverage is a count: the out-degree,
    an infinite class counted once."""
    for v in p.blocks:
        g.check_vertex(v)
    check_listable(g.edge_classes)
    where: dict[Edge | str, tuple[str, int]] = {}
    for v in g.vertices:
        out = g.out_classes(v)
        cells = p.blocks.get(v, ())
        if not out:
            if cells:
                raise InputError(f"sink {v!r} must have no blocks")
            continue
        if not cells:
            raise InputError(f"vertex {v!r} has outgoing edges but no blocks")
        if sum(1 for b in cells if b.is_infinite) > 1:
            raise InputError(f"vertex {v!r} has more than one infinite block")
        placed = len(where)
        for i, b in enumerate(cells):
            if not b.edges and not b.infinite_classes:
                raise InputError(f"vertex {v!r} has an empty block")
            for e in b.edges:
                c = g.cls(g.check_edge(e).cls)
                if c.src != v:
                    raise InputError(f"edge {e.cls!r} does not leave {v!r}")
                if c.is_infinite:
                    raise InputError(f"infinite class {e.cls!r} can only be assigned wholesale")
                if e in where:
                    raise InputError(f"blocks at {v!r} are not disjoint")
                where[e] = v, i
            for cid in b.infinite_classes:
                c = g.cls(cid)
                if c.src != v or not c.is_infinite:
                    raise InputError(f"class {cid!r} is not an infinite class at {v!r}")
                if cid in where:
                    raise InputError(f"blocks at {v!r} are not disjoint")
                where[cid] = v, i
        if len(where) - placed != sum(1 if c.is_infinite else c.mult for c in out):
            raise InputError(f"blocks at {v!r} do not cover the outgoing edges")
    return where


class OutSplit(NamedTuple):
    """An out-split graph with the edge table that relabels paths into it.

    ``block`` gives the source block of each finite edge, and of each
    infinite class by class id, as the vertex copy of that block.
    ``edges`` maps ``(edge, range vertex)`` to ``(new edge, vertex copy)``
    for each finite edge and each copy of its range (the range itself when
    it is a sink); infinite classes are keyed by class id, map to the new
    class id, and keep their indices.  ``ends`` gives each singular vertex
    the vertex a finite path ending there ends at in the split: a sink
    itself, an infinite emitter the copy of its infinite block."""

    graph: Graph
    partition: OutSplitPartition
    block: dict[Edge | str, str]
    edges: dict[tuple[Edge | str, str], tuple[Edge | str, str]]
    ends: dict[str, str]


def split_vertex_name(v: str, i: int) -> str:
    return f"{v}^{i}"


def out_split(g: Graph, p: OutSplitPartition) -> OutSplit:
    """The out-split graph: each non-sink vertex becomes one copy per block,
    each edge becomes one copy per block of its range (sinks stay put).

    A class whose edges fall in several blocks is cut into pieces
    ``cid_b<i>`` with members renumbered in order; a new name that is
    already taken gets a ``_<k>`` suffix.  Each item's block is read off
    the map :func:`check_partition` returns."""
    where = check_partition(g, p)
    sinks = [v for v in g.vertices if not p.m(v)]
    wanted = [(v, split_vertex_name(v, i)) for v in g.vertices for i in range(1, p.m(v) + 1)]
    copies: dict[str, list[str]] = {v: [] for v in g.vertices}
    for (v, _), name in zip(wanted, _fresh_names([n for _, n in wanted], sinks)):
        copies[v].append(name)
    vertices = [u for v in g.vertices for u in copies[v] or [v]]
    block = {item: copies[v][i] for item, (v, i) in where.items()}
    ends = {v: v for v in sinks}
    ends.update((c.src, block[c.cid]) for c in g.edge_classes if c.is_infinite)
    pieces = []  # (class, source copy, members or None if infinite, range, wanted id)
    for c in g.edge_classes:
        groups: dict[str, list[int] | None] = {block[c.cid]: None} if c.is_infinite else {}
        for idx in range(0 if c.is_infinite else c.mult):
            groups.setdefault(block[Edge(c.cid, idx)], []).append(idx)
        for i, u in enumerate(copies[c.src], start=1):
            if u in groups:
                stem = c.cid if len(groups) == 1 else f"{c.cid}_b{i}"
                targets = copies[c.dst] or [c.dst]
                pieces.extend(
                    (c, u, groups[u], t, f"{stem}^{j}" if copies[c.dst] else stem)
                    for j, t in enumerate(targets, start=1)
                )
    classes = []
    edges: dict[tuple[Edge | str, str], tuple[Edge | str, str]] = {}
    for (c, u, members, t, _), cid in zip(pieces, _fresh_names([q[4] for q in pieces])):
        if members is None:
            classes.append(EdgeClass(cid, u, t, INF))
            edges[(c.cid, t)] = (cid, u)
        else:
            classes.append(EdgeClass(cid, u, t, len(members)))
            edges.update(((Edge(c.cid, idx), t), (Edge(cid, r), u)) for r, idx in enumerate(members))
    return OutSplit(Graph(vertices, classes), p, block, edges, ends)


def _relabel(table: dict, path: tuple[Edge, ...], t: str | None):
    """The copy of a path whose last edge aims at vertex copy ``t``, built
    from its end, with the copy it starts at; None when a lookup fails."""
    out = []
    for e in reversed(path):
        hit = table.get((e, t))
        if hit is None:
            hit = table.get((e.cls, t))  # an infinite class
            if hit is None or e.idx < 0:
                return None
            hit = Edge(hit[0], e.idx), hit[1]
        new, t = hit
        out.append(new)
    out.reverse()
    return tuple(out), t


def out_split_map(g: Graph, s: OutSplit, x: BoundaryPoint) -> BoundaryPoint:
    """The conjugacy image of a boundary path under an out-split.

    Every edge is relabelled by the block of its successor; the last edge of
    a finite path aims at the block whose vertex copy is the infinite
    emitter, and edges into sinks keep their names.  One table lookup per
    edge relabels and checks it; when one fails, ``canonicalize`` names the
    fault.

    The image of a canonical point is canonical as it stands.  Each new edge
    is determined by its old edge and the block of the next one, and the old
    edge can be read back from it, so a primitive period stays primitive.
    The last preperiod edge and the last period edge are both followed by
    the first period edge, so their images are equal exactly when they are.
    """
    edges = x.pre or x.period
    if edges and g.edge_src(edges[0]) != x.src:
        pass  # a source off the first edge; canonicalize names the fault
    elif x.period:
        head = x.period[0]
        period = _relabel(s.edges, x.period, s.block.get(head, s.block.get(head.cls)))
        pre = period and _relabel(s.edges, x.pre, period[1])
        if pre:
            return BoundaryPoint(pre[1], pre[0], period[0])
    elif x.pre:
        pre = _relabel(s.edges, x.pre, s.ends.get(g.edge_dst(x.pre[-1])))
        if pre:
            return BoundaryPoint(pre[1], pre[0], ())
    elif x.src in s.ends:
        return BoundaryPoint(s.ends[x.src], (), ())
    canonicalize(g, x.src, x.pre, x.period)
    raise InputError("not a boundary path of the graph")


# -- amplification and transitive closure ------------------------------------


def _fresh_names(wanted: Iterable[str], taken: Iterable[str] = ()) -> list[str]:
    """The wanted names in order, each kept unless ``taken`` or an earlier
    name holds it; a clash gets the first ``name_<k>`` (k >= 2) that no
    name, wanted or given, uses."""
    wanted = list(wanted)
    used = set(taken)
    avoid = used | set(wanted)
    out = []
    for name in wanted:
        new, k = name, 2
        if name in used:
            while new in avoid:
                new, k = f"{name}_{k}", k + 1
        used.add(new)
        avoid.add(new)
        out.append(new)
    return out


def _pair_graph(g: Graph, pairs: list[tuple[str, str]]) -> Graph:
    # Only uniqueness among the new names matters (every old class is
    # replaced); naming by the vertex pair alone makes the moves idempotent.
    names = _fresh_names(f"{v}_{w}" for v, w in pairs)
    return Graph(g.vertices, [EdgeClass(n, v, w, INF) for n, (v, w) in zip(names, pairs)])


def amplify(g: Graph) -> Graph:
    """Replace every connected ordered vertex pair by a single infinite
    parallel class.  Idempotent."""
    return _pair_graph(g, list(dict.fromkeys((c.src, c.dst) for c in g.edge_classes)))


def amplified_transitive_closure(g: Graph) -> Graph:
    """One infinite class for every pair joined by a path of length >= 1,
    read off the bitset closure of the component DAG."""
    from .digraphs import closure

    cond, reach, _ = closure(g)
    at = list(zip(g.vertices, cond.comp))
    return _pair_graph(g, [(v, w) for v, c in at for w, d in at if reach[c] >> d & 1])


def decide_amplified_oe(E: Graph, F: Graph) -> tuple[bool, dict[str, str] | None]:
    """Decide whether the amplifications of two finite-vertex graphs are
    orbit equivalent: this holds exactly when their amplified transitive
    closures are isomorphic digraphs, i.e. when the reachability relations
    match under some vertex bijection.

    Every strongly connected component of a closure is a clique of twins,
    so the closures are isomorphic exactly when the condensations, closed
    under reachability and labelled by (size, cyclic), are.  A DAG's
    closure and its transitive reduction determine each other, so the
    labelled reductions that ``digraphs.closure`` returns are compared
    instead: a long path's reduction has n - 1 arcs where its closure has
    n(n - 1)/2.  The component bijection expands to vertices in declaration
    order."""
    from .digraphs import closure, isomorphism

    (cE, _, arcsE), (cF, _, arcsF) = closure(E), closure(F)
    phi = isomorphism(cE.label, arcsE, cF.label, arcsF)
    if phi is None:
        return False, None
    image = {}
    for c, d in enumerate(phi):
        image.update(zip(cE.members[c], cF.members[d]))
    return True, {v: F.vertices[image[i]] for i, v in enumerate(E.vertices)}


# -- saturation ---------------------------------------------------------------


class ParallelIndexing:
    """A bijection between the naturals and the (countably infinite) set of
    all edges between two fixed vertices: finite-class edges first in
    declaration order, then the infinite classes interleaved round-robin.
    Positions are reckoned from where each finite class starts, so no edge
    is listed, a class of any multiplicity costs nothing, and each lookup
    is a dict hit or a bisection over classes."""

    def __init__(self, g: Graph, src: str, dst: str):
        parallel = [c for c in g.edge_classes if c.src == src and c.dst == dst]
        self.infinite = [c.cid for c in parallel if c.is_infinite]
        if not self.infinite:
            raise InputError(f"the parallel class {src!r} -> {dst!r} is finite")
        finite = [c for c in parallel if not c.is_infinite]
        self.classes = [c.cid for c in finite]
        self.starts = list(accumulate((c.mult for c in finite), initial=0))
        self.span = {c.cid: (start, c.mult) for c, start in zip(finite, self.starts)}

    def edge(self, n: int) -> Edge:
        if n < self.starts[-1]:
            i = bisect_right(self.starts, n) - 1
            return Edge(self.classes[i], n - self.starts[i])
        n -= self.starts[-1]
        q, r = divmod(n, len(self.infinite))
        return Edge(self.infinite[r], q)

    def _finite_index(self, e: Edge) -> int | None:
        start, mult = self.span.get(e.cls, (0, 0))
        return start + e.idx if 0 <= e.idx < mult else None

    def index(self, e: Edge) -> int:
        n = self._finite_index(e)
        if n is not None:
            return n
        r = self.infinite.index(e.cls)
        return self.starts[-1] + e.idx * len(self.infinite) + r

    def contains(self, e: Edge) -> bool:
        return self._finite_index(e) is not None or e.cls in self.infinite


class RewritingWitness(NamedTuple):
    """The data of a saturation move: the pattern path, the new class, and
    the even/odd splitting of the pattern-parallel edges.

    ``eta1(n)`` is the even-indexed parallel edge ``A[2n]`` and
    ``eta2(A[j]) = A[2j+1]``; the two images are disjoint and cover all
    parallels, which is what the rewriting needs to be a bijection.
    """

    original: Graph
    saturated: Graph
    pattern: Path
    new_class: str
    indexing: ParallelIndexing

    def eta1(self, n: int) -> Edge:
        return self.indexing.edge(2 * n)

    def eta1_inverse(self, e: Edge) -> int | None:
        j = self.indexing.index(e)
        return j // 2 if j % 2 == 0 else None

    def eta2(self, e: Edge) -> Edge:
        return self.indexing.edge(2 * self.indexing.index(e) + 1)

    def eta2_inverse(self, e: Edge) -> Edge | None:
        j = self.indexing.index(e)
        return self.indexing.edge((j - 1) // 2) if j % 2 == 1 else None


def saturate(g: Graph, pattern: Path) -> tuple[Graph, RewritingWitness]:
    """Add an infinite class of shortcut edges shadowing the pattern path.

    Requires the set of edges parallel to the pattern (same source, same
    range) to be infinite.
    """
    if pattern.length < 1:
        raise InputError("the pattern must have length >= 1")
    for e in pattern.edges:
        g.check_edge(e)
    pattern = g.path(pattern.edges)
    # The eta maps act on the parallels of the first pattern edge; only with
    # that choice do the rewritten paths compose.
    indexing = ParallelIndexing(g, pattern.src, g.edge_dst(pattern.edges[0]))
    used = {c.cid for c in g.edge_classes}
    cid = "M"
    k = 2
    while cid in used:
        cid = f"M{k}"
        k += 1
    sat = Graph(g.vertices, list(g.edge_classes) + [EdgeClass(cid, pattern.src, pattern.dst, INF)])
    return sat, RewritingWitness(g, sat, pattern, cid, indexing)


def _occurs_at(w: RewritingWitness, x: BoundaryPoint, pos: int, length: int | float) -> bool:
    """Whether a pattern occurrence starts at position ``pos`` of ``x``, a
    point of the given length: a parallel of the pattern head followed by
    the pattern tail."""
    edges = w.pattern.edges
    if pos + len(edges) > length or not w.indexing.contains(x.edge_at(pos)):
        return False
    for i in range(1, len(edges)):
        if x.edge_at(pos + i) != edges[i]:
            return False
    return True


def _rewrite(w: RewritingWitness, x: BoundaryPoint, forward: bool) -> BoundaryPoint:
    """Run the greedy left-to-right rewriting over a representable point and
    detect the eventual period of the output.

    Forward rewriting (saturated -> original) replaces each new-class edge
    ``M[n]`` by ``eta1(n)`` followed by the pattern tail, and each
    occurrence of a parallel edge followed by the pattern tail by the same
    with the edge pushed through ``eta2``.  The inverse direction undoes
    both.  Occurrences are scanned greedily from the left; in a periodic
    tail the scanner state (offset modulo the period) eventually repeats,
    which delimits the output period.
    """
    gdst = w.original if forward else w.saturated
    m = w.pattern.length
    tail = w.pattern.edges[1:]
    pre_len = len(x.pre)
    per = len(x.period)
    length = x.length
    out: list[Edge] = []
    pos = 0  # index into x of the next unconsumed edge
    cut: dict[int, int] = {}  # scanner state -> length of `out` when seen
    while pos < length:
        if per and pos >= pre_len:
            state = (pos - pre_len) % per
            if state in cut:
                c = cut[state]
                return canonicalize(gdst, x.src, out[:c], out[c:])
            cut[state] = len(out)
        head = x.edge_at(pos)
        if forward and head.cls == w.new_class:
            out.append(w.eta1(head.idx))
            out.extend(tail)
            pos += 1
        elif _occurs_at(w, x, pos, length):
            n = None if forward else w.eta1_inverse(head)
            if n is not None:
                out.append(Edge(w.new_class, n))
            else:
                out.append(w.eta2(head) if forward else w.eta2_inverse(head))
                out.extend(tail)
            pos += m
        else:
            out.append(head)
            pos += 1
    return canonicalize(gdst, x.src, out)


def saturate_map(w: RewritingWitness, x: BoundaryPoint) -> BoundaryPoint:
    """The rewriting homeomorphism from the saturated boundary to the
    original one, on a representable point."""
    return _rewrite(w, x, forward=True)


def saturate_map_inverse(w: RewritingWitness, y: BoundaryPoint) -> BoundaryPoint:
    return _rewrite(w, y, forward=False)


def saturation_cocycles(
    w: RewritingWitness,
) -> tuple[Callable, Callable, Callable, Callable]:
    """The witness cocycles of a saturation, as point functions.

    With h = saturate_map and m the pattern length:
      k1 = 0;  l1(x) = m on the new-class cylinders, 1 elsewhere;
      k1p(y) = m - 1 on occurrences headed by an even parallel, 0 otherwise;
      l1p = 1.
    """
    m = w.pattern.length

    def k1(x: BoundaryPoint) -> int:
        return 0

    def l1(x: BoundaryPoint) -> int:
        return m if x.edge_at(0).cls == w.new_class else 1

    def k1p(y: BoundaryPoint) -> int:
        if _occurs_at(w, y, 0, y.length) and w.eta1_inverse(y.edge_at(0)) is not None:
            return m - 1
        return 0

    def l1p(y: BoundaryPoint) -> int:
        return 1

    return k1, l1, k1p, l1p


def check_saturation_identity(
    w: RewritingWitness,
    points_sat: Iterable[BoundaryPoint],
    points_orig: Iterable[BoundaryPoint],
) -> list[str]:
    """Sampled verification of the witness identities for a saturation, in
    both directions; returns a list of failure descriptions."""
    from .dynamics import _identity_failures

    k1, l1, k1p, l1p = saturation_cocycles(w)
    sat, orig = ([x for x in points if x.length >= 1] for points in (points_sat, points_orig))
    forward = _identity_failures(w.saturated, w.original, sat, partial(saturate_map, w), k1, l1, 1, "forward")
    inverse = partial(saturate_map_inverse, w)
    backward = _identity_failures(w.original, w.saturated, orig, inverse, k1p, l1p, 1, "backward")
    return forward + backward
