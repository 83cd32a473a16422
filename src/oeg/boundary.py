"""The boundary path space of a graph, restricted to its computable points.

A boundary path is either a finite path ending at a singular vertex (a sink
or an infinite emitter) or an infinite path.  Of the infinite paths only the
eventually periodic ones are representable pointwise; everything else is
reachable through cylinder-set symbolics.  Every representable point has a
unique canonical form: the period is a simple loop and the preperiod is as
short as possible.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import DomainError, InputError, UnsupportedScaleError, _shown_int
from .graphs import (
    INF,
    Edge,
    EdgeClass,
    Graph,
    Path,
    _least_rotation,
    _primitive_root_edges,
    _primitive_walks,
    is_singular,
    vertex_kind,
)


class BoundaryPoint(NamedTuple):
    """Canonical boundary path: finite (``period == ()``) or eventually
    periodic.  Construct with :func:`canonicalize`."""

    src: str
    pre: tuple[Edge, ...]
    period: tuple[Edge, ...]

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def length(self) -> int | float:
        return INF if self.period else len(self.pre)

    def edge_at(self, i: int) -> Edge:
        if i < 0:
            raise InputError("an edge position must be a natural number")
        if i < len(self.pre):
            return self.pre[i]
        if not self.period:
            raise DomainError(f"point has no edge at position {_shown_int(i)}")
        return self.period[(i - len(self.pre)) % len(self.period)]

    def prefix_edges(self, n: int) -> tuple[Edge, ...]:
        if n < 0:
            raise InputError("a prefix length must be a natural number")
        if n > self.length:
            raise DomainError(f"point is shorter than {_shown_int(n)}")
        if n <= len(self.pre):
            return self.pre[:n]
        return tuple(self.edge_at(i) for i in range(n))


def canonicalize(
    g: Graph,
    src: str,
    pre: Iterable[Edge] = (),
    period: Iterable[Edge] = (),
) -> BoundaryPoint:
    """Validate raw point data and bring it to canonical form.

    The period is replaced by its primitive root, then the preperiod is
    shortened while its last edge equals the last edge of the (suitably
    rotated) period.  Finite data whose range vertex is regular is rejected:
    it does not denote a boundary path.  The checks are one walk, shared
    with :func:`is_canonical`.
    """
    pre, period = tuple(pre), tuple(period)
    _walk(g, src, pre, period)
    return _canonical(g, src, pre, period)


def is_canonical(g: Graph, x: BoundaryPoint) -> bool:
    """Whether ``canonicalize(g, x.src, x.pre, x.period) == x``, found
    without building a point or raising: the fields pass canonicalize's
    walk, and the period is primitive and its last edge does not end the
    preperiod, so :func:`_canonical` changes nothing."""
    pre, period = x.pre, x.period
    if not (isinstance(pre, tuple) and isinstance(period, tuple)):
        return False  # canonicalize gives tuples
    try:
        _walk(g, x.src, pre, period)
    except InputError:
        return False
    return not period or (not (pre and pre[-1] == period[-1]) and _primitive_root_edges(period)[1] == 1)


def _walk(g: Graph, src: str, pre: tuple[Edge, ...], period: tuple[Edge, ...]) -> None:
    """Raise canonicalize's InputError on data that is no boundary path: an
    edge's class or index first, then the source, a break in the path, an
    open period or a finite path to a regular vertex."""
    classes, here, joined = g._by_id, src, True
    for edges in (pre, period):
        for e in edges:
            c = classes.get(e.cls) or g.cls(e.cls)  # g.cls names an unknown class
            if e.idx < 0 or e.idx >= c.mult:
                g.check_edge(e)  # words the refusal
            joined = joined and c.src == here
            here = c.dst
    g.check_vertex(src)
    if not joined:
        raise InputError("edges do not form a path")
    if not period:
        if g._deg[here] not in (0, INF):
            raise InputError(f"not a boundary path: {here!r} is a regular vertex")
    elif here != classes[period[0].cls].src:
        raise InputError("period does not close up into a loop")


def _canonical(g: Graph, src: str, pre: tuple[Edge, ...], period: tuple[Edge, ...]) -> BoundaryPoint:
    """Canonical form of already-validated point data."""
    if not period:
        return BoundaryPoint(src, pre, ())
    period, _ = _primitive_root_edges(period)
    if pre and pre[-1] == period[-1]:
        pre = list(pre)
        period = list(period)
        while pre and pre[-1] == period[-1]:
            pre.pop()
            period = [period[-1]] + period[:-1]
        pre = tuple(pre)
        period = tuple(period)
    new_src = src if pre else g.edge_src(period[0])
    return BoundaryPoint(new_src, pre, period)


def point_range(g: Graph, x: BoundaryPoint) -> str:
    """Range vertex of a finite point."""
    if x.period:
        raise DomainError("an infinite point has no range vertex")
    return g.edge_dst(x.pre[-1]) if x.pre else x.src


def drop_edges(g: Graph, x: BoundaryPoint, n: int) -> BoundaryPoint:
    """The point with its first ``n`` edges removed.  The tail of a
    canonical point is canonical, so it is built from the fields as it
    stands: the range of the ``n``-th edge and the rest of the preperiod,
    or a rotation of the period once the preperiod is used up.  A negative
    ``n`` raises InputError, and one past the end a DomainError."""
    pre, period = x.pre, x.period
    if 0 < n <= len(pre):
        e = pre[n - 1]
        return BoundaryPoint((g._by_id.get(e.cls) or g.cls(e.cls)).dst, pre[n:], period)
    if n == 0:
        return x
    if n < 0:
        raise InputError("the number of edges to drop must be a natural number")
    if not period:
        raise DomainError(f"cannot drop {_shown_int(n)} edges from a point of length {len(pre)}")
    r = (n - len(pre)) % len(period)
    rotated = period[r:] + period[:r]
    return BoundaryPoint(g.edge_src(rotated[0]), (), rotated)


def shift(g: Graph, x: BoundaryPoint, n: int = 1) -> BoundaryPoint:
    """The shift map applied ``n`` times: drop the first ``n`` edges of a
    boundary path (``n = 0`` is the identity)."""
    if n < 0:
        raise InputError("shift exponent must be a natural number")
    if x.length < n:
        raise DomainError(f"cannot shift a point of length {x.length} by {_shown_int(n)}")
    return drop_edges(g, x, n)


def _vertex_after(g: Graph, x: BoundaryPoint, n: int) -> str:
    return x.src if n == 0 else g.edge_dst(x.edge_at(n - 1))


def prepend(g: Graph, path: Path, x: BoundaryPoint) -> BoundaryPoint:
    """The point ``path . x``; the range of the path must be the source of
    the point."""
    if path.dst != x.src:
        raise InputError(f"cannot prepend: range {path.dst!r} != source {x.src!r}")
    src = path.src if path.edges else x.src
    if not x.period:
        if not x.pre and not path.edges:
            return x
        # the range stays singular, so no revalidation needed
        return BoundaryPoint(src, path.edges + x.pre, ())
    return _canonical(g, src, path.edges + x.pre, x.period)


def prefix_path(g: Graph, x: BoundaryPoint, n: int) -> Path:
    """The initial segment of a point as a path (valid by construction)."""
    return Path(x.src, _vertex_after(g, x, n), x.prefix_edges(n))


def starts_with(x: BoundaryPoint, path: Path) -> bool:
    if x.src != path.src:
        return False
    if path.length > x.length:
        return False
    return x.prefix_edges(path.length) == path.edges


def point_sort_key(x: BoundaryPoint):
    # the source breaks the one tie left: empty paths at different vertices
    if x.is_finite:
        return (0, len(x.pre), x.pre, (), x.src)
    return (1, len(x.pre), x.pre, x.period, x.src)


def tail_key(g: Graph, x: BoundaryPoint):
    """The tail class of a point: ``("sink", range)`` for a finite point and
    ``("cycle", least rotation of the period)`` for an eventually periodic
    one.  Two points are shift equivalent exactly when their keys agree."""
    if x.is_finite:
        return ("sink", point_range(g, x))
    return ("cycle", _least_rotation(x.period))


def tail_classes(g: Graph, points: Iterable[BoundaryPoint]) -> dict[tuple, list[BoundaryPoint]]:
    """The points grouped by :func:`tail_key`, each class in the given order."""
    classes: dict[tuple, list[BoundaryPoint]] = {}
    for x in points:
        classes.setdefault(tail_key(g, x), []).append(x)
    return classes


def _meets(g: Graph, m: int, x: BoundaryPoint, n: int, y: BoundaryPoint) -> bool:
    """Whether ``sigma^m(x) = sigma^n(y)``, for canonical points ``x`` and
    ``y`` of ``g`` and natural ``m`` and ``n``; a shift past the end of a
    finite point gives False.  The tails of canonical points are canonical,
    so they are compared field by field, without building either: the
    preperiods left must be as long and agree, with equal periods and, when
    both are used up on finite points, equal range vertices; or, both
    shifted into their periods, the rotated periods must agree."""
    i, j, p, q = len(x.pre) - m, len(y.pre) - n, x.period, y.period  # preperiod edges left
    if i > 0 or j > 0 or not (p and q):
        return i == j >= 0 and p == q and x.pre[m:] == y.pre[n:] and (i > 0 or point_range(g, x) == point_range(g, y))
    i, j = -i % len(p), -j % len(q)
    return len(p) == len(q) and p[i:] + p[:i] == q[j:] + q[:j]


def minimal_witness(g: Graph, x: BoundaryPoint, y: BoundaryPoint, k: int) -> tuple[int, int] | None:
    """The least ``(m, n)`` with ``m - n = k`` and ``sigma^m(x) = sigma^n(y)``,
    or None when there is none.  The pairs that meet at a fixed ``k`` are
    closed upward, so :func:`_meets` decides existence once at the pair
    that shifts both points past their preperiods; the pair is then backed
    off while the preceding edges agree."""
    m = max(len(x.pre), len(y.pre) + k)
    n = m - k
    if not _meets(g, m, x, n, y):
        return None
    while m > 0 and n > 0 and x.edge_at(m - 1) == y.edge_at(n - 1):
        m, n = m - 1, n - 1
    return m, n


def exponent_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The bicyclic product of shift-exponent pairs: from
    ``sigma^m1(x) = sigma^n1(y)`` and ``sigma^m2(y) = sigma^n2(z)`` it gives
    ``(m, n)`` with ``sigma^m(x) = sigma^n(z)``, both sides shifted on to
    ``t = max(n1, m2)`` at ``y``.  It is associative with unit ``(0, 0)``."""
    (m1, n1), (m2, n2) = a, b
    t = max(n1, m2)
    return m1 + t - n1, n2 + t - m2


# -- cylinder sets ---------------------------------------------------------


class CylinderSet(NamedTuple):
    """The set of boundary paths extending ``base`` whose next edge avoids
    the finite excluded set; compact and open."""

    base: Path
    excluded: frozenset[Edge]


def make_cylinder(g: Graph, base: Path, excluded: Iterable[Edge] = ()) -> CylinderSet:
    excluded = frozenset(g.check_edge(e) for e in excluded)
    for e in excluded:
        if g.edge_src(e) != base.dst:
            raise InputError(
                f"excluded edge {e.cls!r} does not leave the base range {base.dst!r}"
            )
    return CylinderSet(base, excluded)


def cyl_is_empty(g: Graph, z: CylinderSet) -> bool:
    """A cylinder is empty iff its base ends at a regular vertex all of whose
    out-edges are excluded.  (Every vertex of a finite graph emits at least
    one boundary path.)"""
    v = z.base.dst
    if vertex_kind(g, v) != "regular":
        return False
    return all(e in z.excluded for e in g.out_edges(v))


def cyl_membership(g: Graph, x: BoundaryPoint, z: CylinderSet) -> bool:
    """Whether the point lies in the cylinder: the base is a prefix and the
    next edge (if any) is not excluded."""
    if not starts_with(x, z.base):
        return False
    n = z.base.length
    if x.length == n:
        return True
    return x.edge_at(n) not in z.excluded


def cyl_intersect(g: Graph, z1: CylinderSet, z2: CylinderSet) -> CylinderSet | None:
    """Symbolic intersection; the intersection of two cylinders is a cylinder
    or empty (None)."""
    if z2.base.length < z1.base.length:
        z1, z2 = z2, z1
    mu, nu = z1.base, z2.base
    if not (nu.src == mu.src and nu.edges[: mu.length] == mu.edges):
        return None
    if mu.length < nu.length:
        if nu.edges[mu.length] in z1.excluded:
            return None
        out = CylinderSet(nu, z2.excluded)
    else:
        out = CylinderSet(nu, z1.excluded | z2.excluded)
    return None if cyl_is_empty(g, out) else out


def cyl_subtract(g: Graph, z1: CylinderSet, z2: CylinderSet) -> list[CylinderSet]:
    """The difference ``z1 - z2`` as a list of pairwise-disjoint nonempty
    cylinders (empty list when z1 is contained in z2)."""
    if cyl_is_empty(g, z1):
        return []
    if cyl_is_empty(g, z2):
        return [z1]
    mu, f = z1.base, z1.excluded
    nu, gx = z2.base, z2.excluded
    if mu.length <= nu.length:
        if nu.src != mu.src or nu.edges[: mu.length] != mu.edges:
            return [z1]
        if mu.length == nu.length:
            pieces = [
                CylinderSet(_extend(g, mu, e), frozenset()) for e in sorted(gx - f)
            ]
        else:
            xi = nu.edges[mu.length :]
            if xi[0] in f:
                return [z1]
            pieces = [CylinderSet(mu, f | {xi[0]})]
            for i in range(1, len(xi)):
                stem = _extend_many(g, mu, xi[:i])
                pieces.append(CylinderSet(stem, frozenset({xi[i]})))
            pieces.extend(
                CylinderSet(_extend(g, nu, e), frozenset()) for e in sorted(gx)
            )
        return [p for p in pieces if not cyl_is_empty(g, p)]
    # z2's base is shorter: z2 either swallows or misses the whole of z1.
    if mu.src != nu.src or mu.edges[: nu.length] != nu.edges:
        return [z1]
    if mu.edges[nu.length] in gx:
        return [z1]
    return []


def _extend(g: Graph, p: Path, e: Edge) -> Path:
    return Path(p.src, g.edge_dst(e), p.edges + (e,))


def _extend_many(g: Graph, p: Path, edges: tuple[Edge, ...]) -> Path:
    for e in edges:
        p = _extend(g, p, e)
    return p


def cyl_subtract_all(g: Graph, z: CylinderSet, others: Iterable[CylinderSet]) -> list[CylinderSet]:
    pieces = [] if cyl_is_empty(g, z) else [z]
    for other in others:
        pieces = [q for p in pieces for q in cyl_subtract(g, p, other)]
    return pieces


def cyl_relation(g: Graph, z1: CylinderSet, z2: CylinderSet) -> str:
    """Exact set relation of the denoted sets: ``equal``, ``subset``,
    ``superset``, ``disjoint`` or ``overlap`` (decided symbolically)."""
    sub = not cyl_subtract(g, z1, z2)
    sup = not cyl_subtract(g, z2, z1)
    if sub and sup:
        return "equal"
    if sub:
        return "subset"
    if sup:
        return "superset"
    if cyl_intersect(g, z1, z2) is None:
        return "disjoint"
    return "overlap"


def cyl_sort_key(z: CylinderSet):
    return (z.base.length, z.base.src, z.base.edges, sorted(z.excluded))


def disjointify(g: Graph, cover: Iterable[CylinderSet]) -> list[CylinderSet]:
    """Rewrite a finite family of cylinders as a pairwise-disjoint family
    with the same union.

    Deeper base paths take priority and survive intact; shallower members
    are subtracted down to exclusions and refinements.  The result is
    reported in order of increasing base-path length.
    """
    todo = sorted(cover, key=cyl_sort_key, reverse=True)
    out: list[CylinderSet] = []
    for z in todo:
        out.extend(cyl_subtract_all(g, z, out))
    out.sort(key=cyl_sort_key)
    return out


# -- isolated points and the census ----------------------------------------


def is_isolated(g: Graph, x: BoundaryPoint) -> bool:
    """A finite point is isolated iff it ends at a sink; an eventually
    periodic point is isolated iff its period has no exit, that is, every
    vertex it passes has out-degree 1."""
    if x.is_finite:
        return vertex_kind(g, _vertex_after(g, x, len(x.pre))) == "sink"
    return all(g.out_degree(g.edge_src(e)) == 1 for e in x.period)


def isolating_cylinder(g: Graph, x: BoundaryPoint) -> CylinderSet | None:
    """A cylinder whose only member is ``x``, when ``x`` is isolated."""
    if not is_isolated(g, x):
        return None
    if x.is_finite:
        return CylinderSet(g.path(x.pre, at=x.src), frozenset())
    return CylinderSet(g.path(x.pre + x.period, at=x.src), frozenset())


def bounded_points(g: Graph, per_len: int, limit: int | None = None) -> list[BoundaryPoint]:
    """A deterministic finite sample of representable points with
    preperiods of at most one edge: the head, cut to ``limit``, of the
    :func:`point_sort_key` order on the finite points of length <= 1 and the
    eventually periodic points whose period is a primitive closed walk of
    length <= per_len.  An infinite class gives its index-0 edge.

    The finite points come first: the empty point at each singular vertex,
    then each edge into one.  Then the empty-preperiod walks, then each
    edge in ``Edge`` order with the walks at its range that do not end in
    it.  The periodic points are generated in order, so the work stops at
    ``limit``.  A negative ``limit`` is an input error.
    """
    if limit is not None and limit < 0:
        raise InputError("the point limit must be a natural number")
    check_listable(g.edge_classes, 1)
    edges = sorted(e for v in g.vertices for e in g.out_edges(v))
    singular = {v for v in g.vertices if is_singular(g, v)}
    out = [BoundaryPoint(v, (), ()) for v in sorted(singular)]
    out += [BoundaryPoint(g.edge_src(e), (e,), ()) for e in edges if g.edge_dst(e) in singular]

    def periodic() -> Iterator[BoundaryPoint]:
        walks_at: dict[str, list[tuple[Edge, ...]]] = {v: [] for v in g.vertices}
        for w in _primitive_walks(g, per_len):
            walks_at[g.edge_src(w[0])].append(w)
            yield BoundaryPoint(g.edge_src(w[0]), (), w)
        for e in edges:
            # a period ending in the preperiod's edge would absorb it
            yield from (BoundaryPoint(g.edge_src(e), (e,), w) for w in walks_at[g.edge_dst(e)] if w[-1] != e)

    out += islice(periodic(), None if limit is None else max(0, limit - len(out)))
    return out[:limit]


class CensusResult(NamedTuple):
    finite: bool
    points: tuple[BoundaryPoint, ...]  # complete census when finite
    witness: str | None  # reason the space is infinite


# the most points boundary_census lists, and the most edges the other
# listings spell out; a larger finite boundary or edge listing is an error
CENSUS_LIMIT = 10**6


def refuse_over_limit(count: int, text: str) -> None:
    """Raise an :class:`UnsupportedScaleError` when ``count`` is over
    ``CENSUS_LIMIT``; ``text`` spells the message with ``{count}`` and
    ``{limit}`` in it."""
    if count > CENSUS_LIMIT:
        raise UnsupportedScaleError(text.format(count=_shown_int(count), limit=CENSUS_LIMIT))


def check_listable(classes: Iterable[EdgeClass], inf_cap: int = 0) -> None:
    """Refuse, with an :class:`UnsupportedScaleError` naming the count and
    the limit, to list the edges of ``classes`` one by one when they hold
    more than ``CENSUS_LIMIT`` edges; an infinite class lists ``inf_cap``."""
    total = sum(inf_cap if c.is_infinite else c.mult for c in classes)
    refuse_over_limit(total, "listing {count} edges one by one is over the census limit of {limit}")


def tail_class_sizes(g: Graph) -> list[tuple[int, int]] | None:
    """One ``(d, size)`` pair per tail class of a finite boundary, sinks
    first, or None when it is infinite; no point is listed.  ``d`` generates
    the isotropy: 0 at a sink, the length of an exitless cycle.  A pass in
    Kahn's order counts the paths ending at each vertex, the empty one too.
    The vertices it never frees are those a cycle reaches: all of out-degree
    1 iff the boundary is finite, and then they are the cycles to sum over."""
    out, deg = g._out, g._deg
    if INF in deg.values():  # an infinite class
        return None
    left = Counter(c.dst for c in g.edge_classes)  # in-classes not yet passed
    count = dict.fromkeys(g.vertices, 1)
    free = [v for v in g.vertices if not left[v]]
    for u in free:  # grows as the pass frees vertices
        for c in out[u]:
            count[c.dst] += c.mult * count[u]
            left[c.dst] -= 1
            if not left[c.dst]:
                free.append(c.dst)
    if any(k and deg[v] != 1 for v, k in left.items()):
        return None
    sizes = [(0, count[v]) for v in g.vertices if not deg[v]]
    for v in g.vertices:
        d = size = 0
        while left[v]:  # once round the cycle through v, clearing it
            left[v] = 0
            d, size, v = d + 1, size + count[v], out[v][0].dst
        if d:
            sizes.append((d, size))
    return sizes


def _shortest_path(g: Graph, v: str, goal: Callable, first: Callable = lambda c: 0) -> tuple[Edge, ...] | None:
    """The edges of a shortest path from ``v`` to the first vertex found that
    ``goal`` accepts, ties going by out-class order, or None: a breadth-first
    search that takes one edge of each class, as parallel edges share their
    range.  A step takes the index-0 edge, the first step ``first(c)``, and
    ``c.mult`` there skips the class.  ``v`` is found by a path back to it."""
    came: dict[str, tuple[str | None, Edge]] = {}  # vertex -> (vertex before, edge) on its first path
    queue: list[str | None] = [None]  # None is v before the first step: a vertex may be named ""
    for u in queue:
        for c in g.out_classes(v if u is None else u):
            e = Edge(c.cid, first(c) if u is None else 0)
            w = c.dst
            if w in came or e.idx == c.mult:
                continue
            came[w] = (u, e)
            if goal(w):
                edges = []
                while w is not None:
                    w, e = came[w]
                    edges.append(e)
                return tuple(reversed(edges))
            queue.append(w)
    return None


def _cycle_through(g: Graph, u: str) -> Path:
    """A shortest loop through ``u``, which must lie on a cycle."""
    return Path(u, u, _shortest_path(g, u, u.__eq__))


def boundary_size(g: Graph) -> int | str:
    """The number of points of a finite boundary, or the reason why it is
    infinite, found without listing a point.  A finite boundary of more than
    ``CENSUS_LIMIT`` points raises :class:`UnsupportedScaleError`.

    The space is finite iff the graph has no infinite class and no loop with
    an exit.  Only a vertex of out-degree >= 2 closes one or starts two points,
    so without one each vertex starts one; else the tail classes are summed,
    and only an infinite boundary's reason needs the condensation."""
    for c in g.edge_classes:
        if c.is_infinite:
            return f"infinite parallel class {c.cid!r}"
    if max(g._deg.values(), default=0) < 2:
        return len(g.vertices)
    sizes = tail_class_sizes(g)
    if sizes is None:
        from .digraphs import condensation  # loaded on use: a finite boundary never needs it

        cond = condensation(g)
        # a loop with an exit exists iff a cycle passes through a vertex of
        # out-degree >= 2; it is traced through the first in declaration order
        for i, v in enumerate(g.vertices):
            if g.out_degree(v) >= 2 and cond.label[cond.comp[i]][1]:
                return f"loop {'.'.join(e.cls for e in _cycle_through(g, v).edges)} has an exit"
    size = sum(n for _, n in sizes)
    refuse_over_limit(size, "the boundary has {count} points, over the census limit of {limit} points")
    return size


def _census_walk(
    steps: dict[str, list[tuple[Edge, str]]], v0: str, v: str, at: dict[str, int], edges: list[Edge], points: list[BoundaryPoint]
) -> None:
    """Append to ``points`` every boundary path that begins with ``edges``,
    a path from ``v0`` to ``v`` on which ``at`` gives each vertex its
    position; ``steps`` lists each vertex's out-edges with their ranges.  A
    finite point ends at a sink, and a period closes where the walk meets
    its own path.  Each point is canonical and new as built: on a finite
    boundary every cycle is exitless, so a walk that enters one follows it
    back to where it entered and the period is a simple cycle, which is
    primitive; the last preperiod edge and the closing edge leave different
    positions of the path, so they differ; an empty preperiod means ``v0``
    is on the cycle, the source of its first edge; and distinct walks give
    distinct edge sequences.  This is a module function, not a closure,
    because a closure that calls itself is a reference cycle, and that keeps
    ``points`` alive until the collector runs."""
    out = steps[v]
    if not out:
        points.append(BoundaryPoint(v0, tuple(edges), ()))
        return
    for e, w in out:
        i = at.get(w)
        if i is not None:
            points.append(BoundaryPoint(v0, tuple(edges[:i]), (*edges[i:], e)))
        else:
            edges.append(e)
            at[w] = len(edges)
            _census_walk(steps, v0, w, at, edges, points)
            del at[w]
            edges.pop()


def boundary_census(g: Graph) -> CensusResult:
    """The complete list of boundary paths when :func:`boundary_size` finds
    the space finite, or the reason why it is infinite.  On a finite space
    every vertex on a cycle has a single out-edge, so the walks below branch
    only off cycles and terminate.

    Each step of a walk costs constant time and each point the edges it
    holds, so the census takes time linear in the edges it lists, n(n-1)/2
    on an n-vertex chain.  The walk takes one frame per step, so a path
    longer than Python's recursion limit raises ``RecursionError``."""
    size = boundary_size(g)
    if isinstance(size, str):
        return CensusResult(False, (), size)
    points: list[BoundaryPoint] = []
    steps = {v: [(e, g.edge_dst(e)) for e in g.out_edges(v)] for v in g.vertices}
    for v in g.vertices:
        _census_walk(steps, v, v, {v: 0}, [], points)
    return CensusResult(True, tuple(sorted(points, key=point_sort_key)), None)
