"""The two breadth-first searches of the boundary layer as they were before
``oeg.boundary._shortest_path`` replaced both: the search that names a
shortest loop through a vertex, and the one that finds the shortest finite
point in a cylinder.  Kept as the oracle that ``oeg.boundary._cycle_through``
and ``oeg.groupoid._finite_point_in`` are checked against.  Both functions
are the old code verbatim."""

from __future__ import annotations

from oeg.boundary import BoundaryPoint, CylinderSet, canonicalize
from oeg.graphs import Edge, Graph, Path, is_singular


def _cycle_through(g: Graph, u: str) -> Path:
    """A shortest loop through ``u``, which must lie on a cycle."""
    parent: dict[str, Edge] = {}
    frontier = [u]
    seen = {u}
    while frontier:
        nxt = []
        for v in frontier:
            for c in g.out_classes(v):
                w = c.dst
                if w == u:
                    edges = [Edge(c.cid, 0)]
                    while v != u:
                        e = parent[v]
                        edges.append(e)
                        v = g.edge_src(e)
                    return g.loop(tuple(reversed(edges)))
                if w not in seen:
                    seen.add(w)
                    parent[w] = Edge(c.cid, 0)
                    nxt.append(w)
        frontier = nxt


def _finite_point_in(g: Graph, z: CylinderSet) -> BoundaryPoint | None:
    """The shortest finite boundary point inside a cylinder, ties going by
    out-edge order, or None: a breadth-first search over vertices from the
    range of the base, whose first step avoids the excluded edges.  Parallel
    edges share their range, so each step takes one edge of each class."""
    base = z.base
    if is_singular(g, base.dst):
        return canonicalize(g, base.src, base.edges)
    came: dict[str, tuple[str | None, Edge]] = {}  # vertex -> (vertex before, edge) on its first path
    queue: list[str | None] = [None]  # None is the range of the base before the first step
    for u in queue:  # every vertex searched is regular, so its classes are finite
        for c in g.out_classes(base.dst if u is None else u):
            e = Edge(c.cid, 0)
            while u is None and e in z.excluded:
                e = Edge(c.cid, e.idx + 1)
            v = c.dst
            if v in came or e.idx == c.mult:
                continue
            came[v] = (u, e)
            if is_singular(g, v):
                edges = []
                while v is not None:
                    v, e = came[v]
                    edges.append(e)
                return canonicalize(g, base.src, base.edges + tuple(reversed(edges)))
            queue.append(v)
    return None
