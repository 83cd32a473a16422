"""The census walk as it was before it kept a position table: a list scan
(``w in chain``, ``chain.index(w)``) on every step and every point built
through ``canonicalize``, which re-checks each edge of the path.  Kept as
the oracle that ``oeg.boundary.boundary_census`` is checked against, in
values and order; the finiteness gate is the library's own."""

from __future__ import annotations

from oeg.boundary import BoundaryPoint, CensusResult, boundary_size, canonicalize, point_sort_key
from oeg.graphs import Edge, Graph


def reference_census(g: Graph) -> CensusResult:
    size = boundary_size(g)
    if isinstance(size, str):
        return CensusResult(False, (), size)
    points: set[BoundaryPoint] = set()

    def walk(v0: str, chain: list[str], edges: list[Edge]):
        v = chain[-1]
        if g.out_degree(v) == 0:
            points.add(canonicalize(g, v0, tuple(edges)))
            return
        for e in g.out_edges(v):
            w = g.edge_dst(e)
            if w in chain:
                i = chain.index(w)
                points.add(canonicalize(g, v0, tuple(edges[:i]), tuple(edges[i:] + [e])))
            else:
                chain.append(w)
                edges.append(e)
                walk(v0, chain, edges)
                edges.pop()
                chain.pop()

    for v in g.vertices:
        walk(v, [v], [])
    return CensusResult(True, tuple(sorted(points, key=point_sort_key)), None)
