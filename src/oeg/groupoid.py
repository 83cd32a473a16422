"""The groupoid of shift-equivalent boundary-path pairs.

Elements are triples ``(x, k, y)`` of boundary paths with an integer
cocycle, witnessed by a minimal pair of shift exponents ``(m, n)`` with
``m - n = k`` and ``sigma^m(x) = sigma^n(y)``.  Minimality makes the stored
form unique.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .boundary import (
    CENSUS_LIMIT, BoundaryPoint, CylinderSet, _shortest_path, canonicalize, exponent_product, minimal_witness,
    refuse_over_limit, shift
)
from .errors import CompositionError, DomainError, InputError
from .graphs import Edge, EdgeClass, Graph, condition_l, is_singular

if TYPE_CHECKING:
    from .pointtable import PointTable


class GroupoidElement(NamedTuple):
    x: BoundaryPoint
    k: int
    y: BoundaryPoint
    m: int
    n: int

    @property
    def is_unit(self) -> bool:
        return self.k == 0 and self.x == self.y


def make_element(g: Graph, x: BoundaryPoint, m: int, n: int, y: BoundaryPoint) -> GroupoidElement:
    """Build the element ``(x, m - n, y)`` with its minimal witness pair.  The
    pairs that meet at the cocycle ``m - n`` are closed upward, so
    ``sigma^m(x) = sigma^n(y)`` holds exactly when :func:`minimal_witness`
    finds a least pair whose ``m`` is at most the given one."""
    if m < 0 or n < 0:
        raise InputError("shift exponents must be natural numbers")
    if x.length < m or y.length < n:
        raise DomainError("shift exponent exceeds point length")
    least = minimal_witness(g, x, y, m - n)
    if least is None or least[0] > m:
        raise InputError("the shifted points disagree; not a groupoid element")
    return GroupoidElement(x, m - n, y, *least)


def unit(g: Graph, x: BoundaryPoint) -> GroupoidElement:
    return GroupoidElement(x, 0, x, 0, 0)


def compose(g: Graph, e1: GroupoidElement, e2: GroupoidElement) -> GroupoidElement:
    """Product ``(x, k, y) . (y, l, z) = (x, k + l, z)``; the middle points
    must match."""
    if e1.y != e2.x:
        raise CompositionError("source of the left factor differs from range of the right")
    m, n = exponent_product((e1.m, e1.n), (e2.m, e2.n))
    return make_element(g, e1.x, m, n, e2.y)


def inverse(g: Graph, e: GroupoidElement) -> GroupoidElement:
    return GroupoidElement(e.y, -e.k, e.x, e.n, e.m)


class IsotropyGroup(NamedTuple):
    """The subgroup d*Z of cocycles fixing a point; d = 0 means trivial."""

    d: int

    @property
    def trivial(self) -> bool:
        return self.d == 0

    def __str__(self) -> str:
        return "trivial" if self.trivial else f"{self.d}Z"


def isotropy(g: Graph, x: BoundaryPoint) -> IsotropyGroup:
    """Finite points have trivial isotropy; an eventually periodic point has
    isotropy generated by its primitive period length."""
    return IsotropyGroup(0 if x.is_finite else len(x.period))


class PrincipalityReport(NamedTuple):
    principal: bool
    witness_unit: GroupoidElement | None = None  # isolated unit with isotropy
    witness_isotropy: IsotropyGroup | None = None
    trivial_point: BoundaryPoint | None = None  # trivial-isotropy point in the probe
    probe_note: str | None = None


def principality_report(g: Graph, probe: CylinderSet | None = None) -> PrincipalityReport:
    """Topological principality of the groupoid, which holds iff every loop
    has an exit.

    When it fails, the exitless loop yields an isolated unit with nontrivial
    isotropy.  When it holds and a probe cylinder is supplied, a
    trivial-isotropy (finite) point inside it is returned if one is
    representable; otherwise the guaranteed point is aperiodic and the
    report says so instead of fabricating it.
    """
    ok, loop = condition_l(g)
    if not ok:
        x = canonicalize(g, loop.src, (), loop.edges)
        return PrincipalityReport(False, unit(g, x), isotropy(g, x))
    if probe is None:
        return PrincipalityReport(True)
    pt = _finite_point_in(g, probe)
    if pt is not None:
        return PrincipalityReport(True, trivial_point=pt)
    return PrincipalityReport(
        True,
        probe_note="every representable point here is eventually periodic; "
        "the guaranteed trivial-isotropy point is aperiodic",
    )


def _finite_point_in(g: Graph, z: CylinderSet) -> BoundaryPoint | None:
    """The shortest finite boundary point inside a cylinder, ties going by
    out-edge order, or None: the shortest path from the range of the base to
    a singular vertex whose first edge the cylinder does not exclude."""
    base = z.base
    if is_singular(g, base.dst):
        return canonicalize(g, base.src, base.edges)

    def first(c: EdgeClass) -> int:  # the least index not excluded, else c.mult: base.dst is regular
        return next(i for i in range(c.mult + 1) if Edge(c.cid, i) not in z.excluded)

    edges = _shortest_path(g, base.dst, lambda v: is_singular(g, v), first)
    return None if edges is None else canonicalize(g, base.src, base.edges + edges)


def enumerate_elements(g: Graph, pool: list[BoundaryPoint], bound: int) -> list[GroupoidElement]:
    """All elements ``(x, k, y)`` over the pool whose minimal witness fits in
    the bound, in pool order of ``x``, then of ``y``, then by cocycle: the
    rows of :func:`_element_rows` on a fresh point table, as values."""
    from .pointtable import PointTable  # loaded on use: groupoid make and compose never need it

    rows, _, _ = _element_rows(PointTable(g), pool, bound)
    return [GroupoidElement(pool[a], k, pool[b], m, n) for a, k, b, m, n in rows]


def _element_rows(table: PointTable, pool: list[BoundaryPoint], bound: int) -> tuple[list[tuple], list[list[int]], dict]:
    """The elements over the pool as rows ``(a, k, b, m, n)`` of pool
    positions, for ``(pool[a], k, pool[b])`` with minimal witness ``(m, n)``;
    the orbit of each pool point as the ids of ``sigma^j`` for j =
    0..bound, ``orbits[a][0]`` being the id of ``pool[a]``; and the index
    ``meets`` from each orbit point ``z`` to the ``(b, n)`` with
    ``orbits[b][n] == z``, in order.

    Every orbit point is indexed once, so each ``sigma^m(x)`` finds the
    points it meets by one lookup, and the first ``m`` to meet a ``(y, k)``
    is its minimal witness: one step per germ ``(x, m, y, n)`` with
    ``sigma^m(x) = sigma^n(y)``, the germs the phi check counts.  The orbit
    points (from the point lengths) and the germs (from the index) are
    counted before they are walked, and a count past ``CENSUS_LIMIT`` is
    refused with an :class:`UnsupportedScaleError`."""
    # at most this many orbit points, and its square of germs: each count is
    # taken only when its cap passes the limit
    most = (bound + 1) * len(pool)
    if most > CENSUS_LIMIT:
        orbit_points = sum(min(bound, x.length) + 1 for x in pool)
        refuse_over_limit(orbit_points, "the shift orbits up to the bound hold {count} points, over the census limit of {limit}")
    orbits = [table.orbit(table.intern(x), bound) for x in pool]
    meets: dict[int, list[tuple[int, int]]] = {}
    for b, orbit in enumerate(orbits):
        for n, z in enumerate(orbit):
            meets.setdefault(z, []).append((b, n))
    if most * most > CENSUS_LIMIT:
        # each of the len(ms) visits to z meets all of ms
        germs = sum(len(ms) ** 2 for ms in meets.values())
        refuse_over_limit(germs, "the pool has {count} germs up to the bound, over the census limit of {limit}")
    rows = []
    for a, orbit in enumerate(orbits):
        best: dict[tuple[int, int], tuple[int, int]] = {}
        for m, z in enumerate(orbit):
            for b, n in meets[z]:
                best.setdefault((b, m - n), (m, n))
        rows += [(a, k, b, *best[b, k]) for b, k in sorted(best)]
    return rows, orbits, meets


def shift_orbit(g: Graph, x: BoundaryPoint, bound: int) -> list[BoundaryPoint]:
    """The points sigma^j(x) for j = 0..bound (stopping at the length)."""
    orbit = [x]
    for j in range(1, bound + 1):
        if x.length < j:
            break
        orbit.append(shift(g, orbit[-1]))
    return orbit
