"""The out-split and its boundary-path conjugacy as they were before the
edge table: names and member ranks computed per class, blocks found by
scanning the partition, and every image validated by ``canonicalize``.
Kept as the oracle that ``oeg.moves.out_split`` and ``out_split_map`` are
checked against; it knows nothing of name clashes, so compare on graphs
whose usual names are all distinct.

``check_partition`` is the partition check as it was before it checked
each item once and decided coverage by a count: it lists every out-edge
of a vertex a second time and compares the sets.  It is kept verbatim as
the oracle of ``oeg.moves.check_partition``."""

from __future__ import annotations

from typing import Sequence

from oeg.boundary import BoundaryPoint, canonicalize, check_listable
from oeg.errors import InputError
from oeg.graphs import INF, Edge, EdgeClass, Graph, vertex_kind
from oeg.moves import OutSplitPartition, split_vertex_name


def check_partition(g: Graph, p: OutSplitPartition) -> None:
    """Validate properness, raising with the violated clause."""
    for v in p.blocks:
        g.check_vertex(v)
    check_listable(g.edge_classes)
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
        seen_edges: set[Edge] = set()
        seen_inf: set[str] = set()
        for b in cells:
            if not b.edges and not b.infinite_classes:
                raise InputError(f"vertex {v!r} has an empty block")
            for e in b.edges:
                g.check_edge(e)
                if g.edge_src(e) != v:
                    raise InputError(f"edge {e.cls!r} does not leave {v!r}")
                if g.cls(e.cls).is_infinite:
                    raise InputError(
                        f"infinite class {e.cls!r} can only be assigned wholesale"
                    )
                if e in seen_edges:
                    raise InputError(f"blocks at {v!r} are not disjoint")
                seen_edges.add(e)
            for cid in b.infinite_classes:
                c = g.cls(cid)
                if c.src != v or not c.is_infinite:
                    raise InputError(f"class {cid!r} is not an infinite class at {v!r}")
                if cid in seen_inf:
                    raise InputError(f"blocks at {v!r} are not disjoint")
                seen_inf.add(cid)
        want_edges = {
            Edge(c.cid, i) for c in out if not c.is_infinite for i in range(c.mult)
        }
        want_inf = {c.cid for c in out if c.is_infinite}
        if seen_edges != want_edges or seen_inf != want_inf:
            raise InputError(f"blocks at {v!r} do not cover the outgoing edges")


class OracleSplit:
    def __init__(self, g: Graph, p: OutSplitPartition):
        check_partition(g, p)
        self.g, self.partition = g, p
        vertices = []
        for v in g.vertices:
            if p.m(v) == 0:
                vertices.append(v)
            else:
                vertices.extend(split_vertex_name(v, i) for i in range(1, p.m(v) + 1))
        classes: list[EdgeClass] = []
        # (class id, source block, range block or 0 for sink targets) -> new id
        self.class_names: dict[tuple[str, int, int], str] = {}
        # per (class id, source block): original indices in that block, in order
        self.member_ranks: dict[tuple[str, int], dict[int, int]] = {}
        for c in g.edge_classes:
            per_block: dict[int, list[int]] = {}
            if c.is_infinite:
                per_block[self.block_of(Edge(c.cid, 0))] = []
            else:
                for idx in range(c.mult):
                    per_block.setdefault(self.block_of(Edge(c.cid, idx)), []).append(idx)
            whole = len(per_block) == 1
            for i, members in sorted(per_block.items()):
                if not c.is_infinite:
                    self.member_ranks[(c.cid, i)] = {idx: r for r, idx in enumerate(sorted(members))}
                stem = c.cid if whole else f"{c.cid}_b{i}"
                src = split_vertex_name(c.src, i)
                mult = INF if c.is_infinite else len(members)
                if p.m(c.dst) == 0:
                    self.class_names[(c.cid, i, 0)] = stem
                    classes.append(EdgeClass(stem, src, c.dst, mult))
                else:
                    for j in range(1, p.m(c.dst) + 1):
                        cid = f"{stem}^{j}"
                        self.class_names[(c.cid, i, j)] = cid
                        classes.append(EdgeClass(cid, src, split_vertex_name(c.dst, j), mult))
        self.graph = Graph(vertices, classes)

    def block_of(self, e: Edge) -> int:
        """1-based index of the block containing an edge."""
        v = self.g.edge_src(e)
        for i, b in enumerate(self.partition.blocks[v], start=1):
            if e in b.edges or e.cls in b.infinite_classes:
                return i
        raise InputError(f"edge {e.cls!r} not covered by the partition at {v!r}")

    def infinite_block(self, v: str) -> int:
        for i, b in enumerate(self.partition.blocks[v], start=1):
            if b.is_infinite:
                return i
        raise InputError(f"vertex {v!r} has no infinite block")

    def split_edge(self, e: Edge, j: int) -> Edge:
        """The copy of an edge aimed at range block j (0 for sink targets)."""
        i = self.block_of(e)
        cid = self.class_names[(e.cls, i, j)]
        idx = e.idx if self.g.cls(e.cls).is_infinite else self.member_ranks[(e.cls, i)][e.idx]
        return Edge(cid, idx)

    def map(self, x: BoundaryPoint) -> BoundaryPoint:
        g, p = self.g, self.partition

        def new_vertex(v: str) -> str:
            kind = vertex_kind(g, v)
            if kind == "sink":
                return v
            if kind == "infinite-emitter":
                return split_vertex_name(v, self.infinite_block(v))
            raise InputError("a finite boundary path must end at a singular vertex")

        def relabel(edges: Sequence[Edge], successor: Edge | None) -> list[Edge]:
            out = []
            for t, e in enumerate(edges):
                w = g.edge_dst(e)
                if p.m(w) == 0:
                    out.append(self.split_edge(e, 0))
                    continue
                nxt = edges[t + 1] if t + 1 < len(edges) else successor
                j = self.infinite_block(w) if nxt is None else self.block_of(nxt)
                out.append(self.split_edge(e, j))
            return out

        if x.is_finite:
            if not x.pre:
                return canonicalize(self.graph, new_vertex(x.src))
            edges = relabel(x.pre, None)
            return canonicalize(self.graph, self.graph.edge_src(edges[0]), edges)
        pre = relabel(x.pre, x.period[0])
        period = relabel(x.period, x.period[0])
        src = self.graph.edge_src((pre + period)[0])
        return canonicalize(self.graph, src, pre, period)
