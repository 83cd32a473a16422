"""The point primitives as they were before ``Graph`` kept its derived
tables: ``canonicalize`` with a pass per check and a method call per edge,
``drop_edges`` that re-canonicalizes the tail, and ``out_degree`` summed from
the classes on every call.  Kept as the oracle that ``oeg.boundary`` and
``Graph.out_degree`` are checked against; the only change is that the
singular-vertex test reads :func:`reference_out_degree`, not the table."""

from __future__ import annotations

from typing import Iterable

from oeg.boundary import BoundaryPoint, _canonical, _vertex_after
from oeg.errors import DomainError, InputError
from oeg.graphs import INF, Edge, Graph


def reference_out_degree(g: Graph, v: str) -> int | float:
    return sum(c.mult for c in g.out_classes(v)) if g.out_classes(v) else 0


def reference_canonicalize(
    g: Graph,
    src: str,
    pre: Iterable[Edge] = (),
    period: Iterable[Edge] = (),
) -> BoundaryPoint:
    pre = tuple(g.check_edge(e) for e in pre)
    period = tuple(g.check_edge(e) for e in period)
    g.check_vertex(src)
    here = src
    for e in pre + period:
        if g.edge_src(e) != here:
            raise InputError("edges do not form a path")
        here = g.edge_dst(e)
    if not period:
        if reference_out_degree(g, here) not in (0, INF):
            raise InputError(
                f"not a boundary path: {here!r} is a regular vertex"
            )
        return BoundaryPoint(src, pre, ())
    if here != g.edge_src(period[0]):
        raise InputError("period does not close up into a loop")
    return _canonical(g, src, pre, period)


def reference_drop_edges(g: Graph, x: BoundaryPoint, n: int) -> BoundaryPoint:
    if n > x.length:
        raise DomainError(f"cannot drop {n} edges from a point of length {x.length}")
    if n == 0:
        return x
    if n <= len(x.pre):
        return _canonical(g, _vertex_after(g, x, n), x.pre[n:], x.period)
    r = (n - len(x.pre)) % len(x.period)
    rotated = x.period[r:] + x.period[:r]
    return BoundaryPoint(g.edge_src(rotated[0]), (), rotated)
