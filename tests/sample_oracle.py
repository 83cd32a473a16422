"""The bounded point sample and the simple-loop search as they were before
the ordered walk: a recursive search from every vertex that collects the
least rotations in a set, every rotation of every loop, and one sorted set
of points per preperiod length, cut to the limit at the end.  Kept as the
oracle that ``oeg.boundary.bounded_points``,
``oeg.graphs.enumerate_simple_loops`` and ``oeg.graphs.condition_l`` are
checked against.

The library's sample has preperiods of at most one edge and takes the
index-0 edge of an infinite class.  This one keeps the old settings, so the
property suites also draw deeper and wider samples from it: preperiods up
to ``pre_len`` edges, ``inf_cap`` edges of an infinite class, and a
breadth-first prefix budget.  At preperiod 1, cap 1 and a budget that does
not cut, it gives the library's sample."""

from __future__ import annotations

from typing import Iterator

from oeg.boundary import BoundaryPoint, check_listable, point_sort_key
from oeg.graphs import Edge, Graph, Path, _least_rotation, _primitive_root_edges, is_singular


def capped_out_edges(g: Graph, v: str, cap: int) -> Iterator[Edge]:
    """The edges out of ``v`` in class order, the first ``cap`` of an
    infinite class."""
    for c in g.out_classes(v):
        for i in range(cap if c.is_infinite else c.mult):
            yield Edge(c.cid, i)


def reference_simple_loops(g: Graph, max_len: int) -> list[Path]:
    check_listable(g.edge_classes, inf_cap=1)
    steps = {v: [(e, g.edge_dst(e)) for e in capped_out_edges(g, v, 1)] for v in g.vertices}
    found: set[tuple[Edge, ...]] = set()

    def walk(start: str, here: str, edges: list[Edge]):
        for e, nxt in steps[here]:
            edges.append(e)
            if nxt == start:
                seq = tuple(edges)
                root, _ = _primitive_root_edges(seq)
                if len(root) == len(seq):
                    found.add(_least_rotation(seq))
            if len(edges) < max_len:
                walk(start, nxt, edges)
            edges.pop()

    for v in g.vertices:
        walk(v, v, [])
    loops = [Path(g.edge_src(seq[0]), g.edge_src(seq[0]), seq) for seq in found]
    loops.sort(key=lambda l: (l.length, l.edges))
    return loops


def loop_has_exit(g: Graph, loop: Path) -> bool:
    """Whether some vertex of the loop has out-degree > 1, so that an edge
    other than the loop's own leaves it."""
    return any(g.out_degree(g.edge_src(e)) > 1 for e in loop.edges)


def reference_bounded_points(
    g: Graph,
    pre_len: int,
    per_len: int,
    inf_cap: int = 1,
    limit: int | None = None,
    prefix_budget: int | None = None,
) -> list[BoundaryPoint]:
    if prefix_budget is None:
        prefix_budget = 4000 if limit is None else max(200, 10 * limit)
    check_listable(g.edge_classes, inf_cap)
    steps = {v: [(e, g.edge_dst(e)) for e in capped_out_edges(g, v, inf_cap)] for v in g.vertices}
    # levels[d][v]: the (source, edges) of the length-d prefixes ending at v
    levels: list[dict[str, list[tuple[str, tuple[Edge, ...]]]]] = []
    level: list[tuple[str, str, tuple[Edge, ...]]] = [(v, v, ()) for v in g.vertices]
    total = 0
    for depth in range(pre_len + 1):
        ends: dict[str, list[tuple[str, tuple[Edge, ...]]]] = {v: [] for v in g.vertices}
        for v0, end, edges in level:
            ends[end].append((v0, edges))
        levels.append(ends)
        total += len(level)
        if depth == pre_len or total >= prefix_budget:
            break
        nxt = []
        for v0, end, edges in level:
            nxt += [(v0, w, edges + (e,)) for e, w in steps[end]]
            if total + len(nxt) >= prefix_budget:
                break
        level = nxt[: max(0, prefix_budget - total)]
    singular = [v for v in g.vertices if is_singular(g, v)]
    finite = {BoundaryPoint(v0, edges, ()) for ends in levels for v in singular for v0, edges in ends[v]}
    out = sorted(finite, key=point_sort_key)
    rotations = [
        loop.edges[i:] + loop.edges[:i]
        for loop in reference_simple_loops(g, per_len)
        for i in range(loop.length)
    ]
    for ends in levels:
        if limit is not None and len(out) >= limit:
            break
        pts: set[BoundaryPoint] = set()
        for rot in rotations:
            base = g.edge_src(rot[0])
            for v0, edges in ends[base]:
                if edges and edges[-1] == rot[-1]:
                    continue
                pts.add(BoundaryPoint(v0 if edges else base, edges, rot))
        out += sorted(pts, key=point_sort_key)
    return out if limit is None else out[:limit]
